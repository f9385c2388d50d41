#include "driver/report/csv_writer.hh"

#include <set>
#include <span>
#include <type_traits>

#include "driver/report/format.hh"

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
 * campaign's selection: the CSV metric columns. One shared header
 * means a job lacking a key (different runtime model) gets an empty
 * cell instead of a ragged row.
 */
std::vector<std::string>
metricColumns(std::span<const campaign::CampaignResult> campaigns,
              std::span<const sim::MetricSelection> selections)
{
    std::set<std::string> keys;
    for (std::size_t c = 0; c < campaigns.size(); ++c)
        for (const campaign::JobResult &j : campaigns[c].jobs)
            for (const auto &[k, v] : j.summary.metrics().entries())
                if (selections[c].matches(k))
                    keys.insert(k);
    return {keys.begin(), keys.end()};
}

void
writeRows(std::ostream &os, const campaign::CampaignResult &c,
          const sim::MetricSelection &selection,
          const std::vector<std::string> &metric_cols)
{
    Text row;
    for (const campaign::JobResult &j : c.jobs) {
        const RunSummary &s = j.summary;
        row << csvField(c.name) << ',' << csvField(j.label) << ','
            << j.digest << ',' << (j.cacheHit() ? 1 : 0) << ','
            << campaign::jobSourceName(j.source) << ','
            << (j.ok() ? 1 : 0) << ',' << csvField(j.error) << ','
            << Real{j.wallMs} << ',' << csvField(j.tracePath);
        // Unary + prints a flag as 1/0 and leaves counts as they are.
        for (const HeadlineField &f : kHeadlineFields)
            std::visit(
                [&](auto member) {
                    using T = std::remove_cvref_t<decltype(s.*member)>;
                    if constexpr (std::is_floating_point_v<T>)
                        row << ',' << Real{s.*member};
                    else
                        row << ',' << +(s.*member);
                },
                f.member);
        // Fill cells from this campaign's own selection, not the full
        // tree: when campaigns with different patterns share the union
        // header, a row must stay empty in columns its pattern
        // excluded.
        const auto &entries = s.metrics().entries();
        for (const std::string &k : metric_cols) {
            row << ',';
            if (const auto it = entries.find(k);
                it != entries.end() && selection.matches(k))
                row << Real{it->second};
        }
        row << '\n';
        row.flushTo(os);
    }
}

void
writeCampaigns(std::ostream &os,
               std::span<const campaign::CampaignResult> campaigns)
{
    std::vector<sim::MetricSelection> selections;
    selections.reserve(campaigns.size());
    for (const campaign::CampaignResult &c : campaigns)
        selections.emplace_back(c.metricsPattern);
    const std::vector<std::string> metric_cols =
        metricColumns(campaigns, selections);
    os << "campaign,label,digest,cache_hit,source,ok,error,wall_ms,"
          "trace_path";
    for (const HeadlineField &f : kHeadlineFields)
        os << ',' << f.name;
    for (const std::string &k : metric_cols)
        os << ',' << csvField(k);
    os << '\n';
    for (std::size_t c = 0; c < campaigns.size(); ++c)
        writeRows(os, campaigns[c], selections[c], metric_cols);
}

} // namespace

void
writeCsv(std::ostream &os,
         const std::vector<campaign::CampaignResult> &campaigns)
{
    writeCampaigns(os, campaigns);
}

void
writeCsv(std::ostream &os, const campaign::CampaignResult &c)
{
    writeCampaigns(os, {&c, 1});
}

} // namespace tdm::driver::report
