#include "driver/report/json_writer.hh"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <type_traits>

namespace tdm::driver::report {

void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream oss;
    oss << std::setprecision(17) << v;
    os << oss.str();
}

void
jsonHeadline(std::ostream &os, const RunSummary &s, const HeadlineField &f)
{
    std::visit(
        [&](auto member) {
            using T = std::remove_cvref_t<decltype(s.*member)>;
            if constexpr (std::is_same_v<T, bool>)
                os << (s.*member ? "true" : "false");
            else if constexpr (std::is_floating_point_v<T>)
                jsonNumber(os, s.*member);
            else
                os << s.*member;
        },
        f.member);
}

namespace {

/** Finite doubles round-trip at max_digits10; non-finite become null. */
void
num(std::ostream &os, double v)
{
    jsonNumber(os, v);
}

void
writeJob(std::ostream &os, const campaign::JobResult &j,
         const std::string &metrics_pattern, const char *indent)
{
    const RunSummary &s = j.summary;
    os << indent << "{\n";
    os << indent << "  \"label\": \"" << jsonEscape(j.label) << "\",\n";
    os << indent << "  \"digest\": \"" << jsonEscape(j.digest) << "\",\n";
    os << indent << "  \"spec\": {";
    {
        bool first = true;
        for (const auto &[k, v] : j.spec.entries()) {
            os << (first ? "\n" : ",\n") << indent << "    \""
               << jsonEscape(k) << "\": \"" << jsonEscape(v) << "\"";
            first = false;
        }
        if (!first)
            os << "\n" << indent << "  ";
    }
    os << "},\n";
    os << indent << "  \"cache_hit\": " << (j.cacheHit() ? "true" : "false")
       << ",\n";
    os << indent << "  \"source\": \"" << campaign::jobSourceName(j.source)
       << "\",\n";
    os << indent << "  \"ok\": " << (j.ok() ? "true" : "false") << ",\n";
    os << indent << "  \"error\": \"" << jsonEscape(j.error) << "\",\n";
    os << indent << "  \"wall_ms\": ";
    num(os, j.wallMs);
    os << ",\n";
    os << indent << "  \"trace_path\": \"" << jsonEscape(j.tracePath)
       << "\",\n";
    for (const HeadlineField &f : kHeadlineFields) {
        os << indent << "  \"" << f.name << "\": ";
        jsonHeadline(os, s, f);
        os << ",\n";
    }
    // The full (or selected) metric tree, flat dotted keys: the
    // machine-readable payload the headline fields above are read
    // from.
    os << indent << "  \"metrics\": {";
    {
        const sim::MetricSet selected =
            s.metrics().select(metrics_pattern);
        bool first = true;
        for (const auto &[k, v] : selected.entries()) {
            os << (first ? "\n" : ",\n") << indent << "    \""
               << jsonEscape(k) << "\": ";
            num(os, v);
            first = false;
        }
        if (!first)
            os << "\n" << indent << "  ";
    }
    os << "}\n" << indent << "}";
}

void
writeCampaign(std::ostream &os, const campaign::CampaignResult &c,
              const char *indent)
{
    os << indent << "{\n";
    os << indent << "  \"name\": \"" << jsonEscape(c.name) << "\",\n";
    os << indent << "  \"threads\": " << c.threads << ",\n";
    os << indent << "  \"wall_ms\": ";
    num(os, c.wallMs);
    os << ",\n";
    os << indent << "  \"sim_ms_total\": ";
    num(os, c.simMsTotal);
    os << ",\n";
    for (const campaign::CampaignTotal &n : campaign::kCampaignTotals)
        os << indent << "  \"" << n.name << "\": " << c.*n.member
           << ",\n";
    os << indent << "  \"failures\": " << c.failures() << ",\n";
    os << indent << "  \"metrics_pattern\": \""
       << jsonEscape(c.metricsPattern) << "\",\n";
    os << indent << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < c.jobs.size(); ++i) {
        writeJob(os, c.jobs[i], c.metricsPattern,
                 (std::string(indent) + "    ").c_str());
        os << (i + 1 < c.jobs.size() ? ",\n" : "\n");
    }
    os << indent << "  ]\n";
    os << indent << "}";
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::ostringstream oss;
    for (unsigned char ch : s) {
        switch (ch) {
        case '"': oss << "\\\""; break;
        case '\\': oss << "\\\\"; break;
        case '\n': oss << "\\n"; break;
        case '\r': oss << "\\r"; break;
        case '\t': oss << "\\t"; break;
        default:
            if (ch < 0x20)
                oss << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(ch)
                    << std::dec;
            else
                oss << ch;
        }
    }
    return oss.str();
}

void
writeJson(std::ostream &os,
          const std::vector<campaign::CampaignResult> &campaigns)
{
    os << "{\n  \"campaigns\": [\n";
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        writeCampaign(os, campaigns[i], "    ");
        os << (i + 1 < campaigns.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

void
writeJson(std::ostream &os, const campaign::CampaignResult &c)
{
    writeJson(os, std::vector<campaign::CampaignResult>{c});
}

} // namespace tdm::driver::report
