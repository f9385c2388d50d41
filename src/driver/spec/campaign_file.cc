#include "driver/spec/campaign_file.hh"

#include <fstream>
#include <sstream>

#include "sim/metrics.hh"
#include "sim/suggest.hh"

namespace tdm::driver::spec {

namespace {

std::string
trim(const std::string &s)
{
    const std::size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    const std::size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

std::vector<std::string>
splitTrim(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t next = s.find(sep, pos);
        out.push_back(trim(s.substr(pos, next - pos)));
        if (next == std::string::npos)
            break;
        pos = next + 1;
    }
    return out;
}

[[noreturn]] void
fail(const std::string &origin, std::size_t line, const std::string &msg)
{
    throw SpecError(origin + ":" + std::to_string(line) + ": " + msg);
}

void
checkKey(const std::string &origin, std::size_t line,
         const std::string &key)
{
    if (key.empty())
        fail(origin, line, "empty key");
    if (findBinding(key))
        return;
    std::vector<std::string> names;
    for (const Binding &b : allBindings())
        names.push_back(b.key);
    fail(origin, line,
         "unknown spec key '" + key + "'"
             + sim::suggestHint(key, names));
}

} // namespace

FileCampaign
parseCampaignFile(std::istream &in, const std::string &origin)
{
    FileCampaign fc;
    bool inMeta = false;

    std::string raw;
    std::size_t lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        const std::size_t startLine = lineNo;

        // Strip each physical line's comment before looking for a
        // continuation backslash — otherwise a comment ending in '\'
        // would silently swallow the next directive.
        auto stripComment = [](const std::string &s) {
            const std::size_t hash = s.find('#');
            return trim(hash == std::string::npos ? s
                                                  : s.substr(0, hash));
        };
        std::string stmt = stripComment(raw);
        while (!stmt.empty() && stmt.back() == '\\') {
            stmt.pop_back();
            std::string next;
            if (!std::getline(in, next))
                fail(origin, lineNo, "dangling '\\' continuation");
            ++lineNo;
            stmt = trim(stmt) + " " + stripComment(next);
        }
        stmt = trim(stmt);
        if (stmt.empty())
            continue;

        if (stmt == "[meta]") {
            inMeta = true;
            continue;
        }
        if (stmt[0] == '[')
            fail(origin, startLine,
                 "unknown section '" + stmt + "' (only [meta] exists)");

        const bool isSet = stmt.rfind("set ", 0) == 0;
        const bool isAxis = stmt.rfind("axis ", 0) == 0;
        const bool isZip = stmt.rfind("zip ", 0) == 0;
        const bool isMetrics = stmt.rfind("metrics", 0) == 0
                               && (stmt.size() == 7 || stmt[7] == ' '
                                   || stmt[7] == '=');
        if (isSet || isAxis || isZip || isMetrics)
            inMeta = false;

        const std::size_t eq = stmt.find('=');
        if (eq == std::string::npos)
            fail(origin, startLine, "expected 'key = value' in '" + stmt
                                    + "'");

        if (inMeta) {
            const std::string key = trim(stmt.substr(0, eq));
            const std::string value = trim(stmt.substr(eq + 1));
            if (key == "name")
                fc.name = value;
            else if (key == "description")
                fc.description = value;
            else if (key == "label")
                fc.grid.label(value);
            else
                fail(origin, startLine,
                     "unknown [meta] key '" + key
                         + "' (name, description, label)");
            continue;
        }

        if (isMetrics) {
            // The keyword must stand alone before '=' — `metrics
            // dmu.* = mesh.*` would otherwise silently select the
            // wrong subtree.
            if (trim(stmt.substr(0, eq)) != "metrics")
                fail(origin, startLine,
                     "expected 'metrics = glob, ...', got '" + stmt
                         + "'");
            const std::string value = trim(stmt.substr(eq + 1));
            if (value.empty())
                fail(origin, startLine, "metrics: empty selection");
            try {
                // Validate glob tokens now; matching is deferred until
                // export, when the run's tree exists.
                const sim::MetricSelection validated(value);
            } catch (const sim::MetricError &e) {
                fail(origin, startLine, e.what());
            }
            fc.metrics = value;
            continue;
        }

        if (isSet) {
            const std::string key = trim(stmt.substr(4, eq - 4));
            const std::string value = trim(stmt.substr(eq + 1));
            checkKey(origin, startLine, key);
            if (value.empty())
                fail(origin, startLine, "set " + key + ": empty value");
            fc.grid.set(key, value);
        } else if (isAxis) {
            const std::string key = trim(stmt.substr(5, eq - 5));
            checkKey(origin, startLine, key);
            const auto values = splitTrim(stmt.substr(eq + 1), ',');
            for (const std::string &v : values)
                if (v.empty())
                    fail(origin, startLine,
                         "axis " + key + ": empty value in list");
            if (values.empty())
                fail(origin, startLine, "axis " + key + ": no values");
            fc.grid.axis(key, values);
        } else if (isZip) {
            const auto keys = splitTrim(stmt.substr(4, eq - 4), ',');
            for (const std::string &k : keys)
                checkKey(origin, startLine, k);
            const auto rowTexts = splitTrim(stmt.substr(eq + 1), '|');
            std::vector<std::vector<std::string>> rows;
            for (const std::string &rt_ : rowTexts) {
                auto row = splitTrim(rt_, ',');
                if (row.size() != keys.size())
                    fail(origin, startLine,
                         "zip over " + std::to_string(keys.size())
                             + " keys got a row with "
                             + std::to_string(row.size()) + " values: '"
                             + rt_ + "'");
                for (const std::string &v : row)
                    if (v.empty())
                        fail(origin, startLine, "zip: empty value");
                rows.push_back(std::move(row));
            }
            if (rows.empty())
                fail(origin, startLine, "zip: no rows");
            fc.grid.zip(keys, std::move(rows));
        } else {
            fail(origin, startLine,
                 "expected 'set', 'axis', 'zip', 'metrics' or "
                 "'[meta]', got '"
                     + stmt + "'");
        }
    }

    return fc;
}

FileCampaign
loadCampaignFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw SpecError("cannot open campaign file: " + path);
    FileCampaign fc = parseCampaignFile(f, path);
    if (fc.name.empty()) {
        // Default name: the file stem.
        std::size_t slash = path.find_last_of("/\\");
        std::string stem =
            slash == std::string::npos ? path : path.substr(slash + 1);
        const std::size_t dot = stem.rfind('.');
        if (dot != std::string::npos && dot > 0)
            stem.erase(dot);
        fc.name = stem;
    }
    return fc;
}

} // namespace tdm::driver::spec
