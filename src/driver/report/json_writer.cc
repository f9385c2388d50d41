#include "driver/report/json_writer.hh"

#include <span>
#include <type_traits>

namespace tdm::driver::report {

void
jsonHeadline(Text &os, const RunSummary &s, const HeadlineField &f)
{
    std::visit(
        [&](auto member) {
            using T = std::remove_cvref_t<decltype(s.*member)>;
            if constexpr (std::is_same_v<T, bool>)
                os << (s.*member ? "true" : "false");
            else if constexpr (std::is_floating_point_v<T>)
                os << JsonReal{s.*member};
            else
                os << s.*member;
        },
        f.member);
}

namespace {

void
writeJob(Text &os, const campaign::JobResult &j,
         const sim::MetricSelection &selection, const std::string &indent)
{
    const RunSummary &s = j.summary;
    os << indent << "{\n";
    os << indent << "  \"label\": \"" << JsonEscaped{j.label} << "\",\n";
    os << indent << "  \"digest\": \"" << JsonEscaped{j.digest} << "\",\n";
    os << indent << "  \"spec\": {";
    {
        bool first = true;
        for (const auto &[k, v] : j.spec.entries()) {
            os << (first ? "\n" : ",\n") << indent << "    \""
               << JsonEscaped{k} << "\": \"" << JsonEscaped{v} << "\"";
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
    os << indent << "  \"error\": \"" << JsonEscaped{j.error} << "\",\n";
    os << indent << "  \"wall_ms\": " << JsonReal{j.wallMs} << ",\n";
    os << indent << "  \"trace_path\": \"" << JsonEscaped{j.tracePath}
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
        bool first = true;
        for (const auto &[k, v] : s.metrics().entries()) {
            if (!selection.matches(k))
                continue;
            os << (first ? "\n" : ",\n") << indent << "    \""
               << JsonEscaped{k} << "\": " << JsonReal{v};
            first = false;
        }
        if (!first)
            os << "\n" << indent << "  ";
    }
    os << "}\n" << indent << "}";
}

/** Write @p c into @p os, flushing it to @p dest after each job so
 *  the export never holds more than one job's text. */
void
writeCampaign(std::ostream &dest, Text &os,
              const campaign::CampaignResult &c, const std::string &indent)
{
    const sim::MetricSelection selection(c.metricsPattern);
    os << indent << "{\n";
    os << indent << "  \"name\": \"" << JsonEscaped{c.name} << "\",\n";
    os << indent << "  \"threads\": " << c.threads << ",\n";
    os << indent << "  \"wall_ms\": " << JsonReal{c.wallMs} << ",\n";
    os << indent << "  \"sim_ms_total\": " << JsonReal{c.simMsTotal}
       << ",\n";
    for (const campaign::CampaignTotal &n : campaign::kCampaignTotals)
        os << indent << "  \"" << n.name << "\": " << c.*n.member
           << ",\n";
    os << indent << "  \"failures\": " << c.failures() << ",\n";
    os << indent << "  \"metrics_pattern\": \""
       << JsonEscaped{c.metricsPattern} << "\",\n";
    os << indent << "  \"jobs\": [\n";
    const std::string jobIndent = indent + "    ";
    for (std::size_t i = 0; i < c.jobs.size(); ++i) {
        writeJob(os, c.jobs[i], selection, jobIndent);
        os << (i + 1 < c.jobs.size() ? ",\n" : "\n");
        os.flushTo(dest);
    }
    os << indent << "  ]\n";
    os << indent << "}";
}

void
writeCampaigns(std::ostream &dest,
               std::span<const campaign::CampaignResult> campaigns)
{
    Text os;
    os << "{\n  \"campaigns\": [\n";
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        writeCampaign(dest, os, campaigns[i], "    ");
        os << (i + 1 < campaigns.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    os.flushTo(dest);
}

} // namespace

void
writeJson(std::ostream &os,
          const std::vector<campaign::CampaignResult> &campaigns)
{
    writeCampaigns(os, campaigns);
}

void
writeJson(std::ostream &os, const campaign::CampaignResult &c)
{
    writeCampaigns(os, {&c, 1});
}

} // namespace tdm::driver::report
