#include "driver/report/csv_writer.hh"

#include <iomanip>
#include <set>
#include <sstream>

namespace tdm::driver::report {

std::string
csvField(const std::string &s)
{
    // RFC 4180: quote fields containing separators, quotes, or either
    // line-break character (a bare \r corrupts the row structure for
    // CRLF-aware readers just like \n does).
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

namespace {

/**
 * Union of the metric keys every job would export under its
 * campaign's selection pattern: the CSV metric columns. One shared
 * header means a job lacking a key (different runtime model) gets an
 * empty cell instead of a ragged row.
 */
std::vector<std::string>
metricColumns(const std::vector<campaign::CampaignResult> &campaigns)
{
    std::set<std::string> keys;
    for (const campaign::CampaignResult &c : campaigns)
        for (const campaign::JobResult &j : c.jobs) {
            const sim::MetricSet sel =
                j.summary.metrics().select(c.metricsPattern);
            for (const auto &[k, v] : sel.entries())
                keys.insert(k);
        }
    return {keys.begin(), keys.end()};
}

void
writeRows(std::ostream &os, const campaign::CampaignResult &c,
          const std::vector<std::string> &metric_cols)
{
    for (const campaign::JobResult &j : c.jobs) {
        const RunSummary &s = j.summary;
        // Fill cells from this campaign's own selection, not the full
        // tree: when campaigns with different patterns share the
        // union header, a row must stay empty in columns its pattern
        // excluded.
        const sim::MetricSet sel =
            s.metrics().select(c.metricsPattern);
        std::ostringstream row;
        row << std::setprecision(17);
        row << csvField(c.name) << ',' << csvField(j.label) << ','
            << j.digest << ',' << (j.cacheHit() ? 1 : 0) << ','
            << campaign::jobSourceName(j.source) << ','
            << (j.ok() ? 1 : 0) << ',' << csvField(j.error) << ','
            << j.wallMs << ',' << csvField(j.tracePath);
        // Unary + prints a flag as 1/0 and leaves numbers as they are.
        for (const HeadlineField &f : kHeadlineFields)
            std::visit([&](auto member) { row << ',' << +(s.*member); },
                       f.member);
        for (const std::string &k : metric_cols) {
            row << ',';
            if (sel.contains(k))
                row << sel.get(k);
        }
        os << row.str() << '\n';
    }
}

} // namespace

void
writeCsv(std::ostream &os,
         const std::vector<campaign::CampaignResult> &campaigns)
{
    const std::vector<std::string> metric_cols =
        metricColumns(campaigns);
    os << "campaign,label,digest,cache_hit,source,ok,error,wall_ms,"
          "trace_path";
    for (const HeadlineField &f : kHeadlineFields)
        os << ',' << f.name;
    for (const std::string &k : metric_cols)
        os << ',' << csvField(k);
    os << '\n';
    for (const campaign::CampaignResult &c : campaigns)
        writeRows(os, c, metric_cols);
}

void
writeCsv(std::ostream &os, const campaign::CampaignResult &c)
{
    writeCsv(os, std::vector<campaign::CampaignResult>{c});
}

} // namespace tdm::driver::report
