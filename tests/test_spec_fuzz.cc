/**
 * @file
 * Fuzz-style robustness tests for the parsers of outside input: the
 * spec/campaign text parsers, the two result-record readers (store
 * blobs and point events), the service request parser and the
 * dashboard's HTTP request-head parser.
 *
 * The *.campaign parser and the spec key/value layer take arbitrary
 * user text; their error contract is "throw SpecError with context or
 * succeed" — never crash, never leak, never throw anything else. This
 * test feeds them a corpus of handcrafted malformed inputs plus a few
 * thousand deterministic mutations (byte flips, truncations, splices)
 * of a valid campaign file. The record readers' contract is stricter:
 * a damaged record is rejected or reads back exactly, never as a
 * different number. A damaged request is refused with a message (or,
 * over HTTP, a 400/431/505 status) and never crashes. CI runs all of
 * it under ASan/UBSan, which turns any parser over-read, bad index, or
 * leak-on-throw into a failure; in plain builds it still pins the
 * error contracts.
 *
 * The mutation stream uses a fixed-seed xorshift generator, NOT
 * rand(): the corpus must be identical on every run and platform so a
 * failure here reproduces everywhere.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/report/format.hh"
#include "driver/service/http_server.hh"
#include "driver/service/protocol.hh"
#include "driver/service/store.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/spec.hh"

using namespace tdm::driver;

namespace {

/** Deterministic xorshift64* stream; fixed seed, same corpus forever. */
class FuzzRng
{
  public:
    explicit FuzzRng(std::uint64_t seed) : state_(seed | 1) {}

    std::uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    std::size_t pick(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

const char kValidCampaign[] =
    "# fuzz seed corpus\n"
    "[meta]\n"
    "name = fuzz_seed\n"
    "description = seed file the mutator corrupts\n"
    "label = {workload}/c{machine.cores}\n"
    "\n"
    "set runtime = tdm\n"
    "set scheduler = age\n"
    "axis machine.cores = 8, 16\n"
    "zip workload, workload.granularity = cholesky, 262144 | qr, 128\n"
    "metrics = dmu.*, makespan\n";

/**
 * The contract under test: parse either succeeds or throws SpecError.
 * Successful parses additionally expand small grids so value
 * validation runs too. Returns true when the input parsed.
 */
bool
parseMustNotCrash(const std::string &text)
{
    std::istringstream in(text);
    try {
        spec::FileCampaign fc = spec::parseCampaignFile(in, "fuzz");
        if (fc.grid.size() <= 64)
            (void)fc.toCampaign();
        return true;
    } catch (const spec::SpecError &) {
        return false; // rejected cleanly: fine
    }
    // Anything else escapes and fails the test.
}

} // namespace

TEST(SpecFuzz, HandcraftedMalformedCampaignFiles)
{
    const std::vector<std::string> nasty = {
        "",
        "\n\n\n",
        "[meta\nname = x\n",
        "[meta]\n[meta]\nname = x\n",
        "[unknown-section]\nset runtime = tdm\n",
        "name = before-any-section\n",
        "set\n",
        "set =\n",
        "set = tdm\n",
        "set runtime\n",
        "set runtime = \n",
        "set runtime tdm\n",
        "set no.such.key = 5\n",
        "set runtime = no-such-runtime\n",
        "set machine.cores = -4\n",
        "set machine.cores = 1e999\n",
        "set machine.cores = 0x10\n",
        "axis = 1, 2\n",
        "axis machine.cores =\n",
        "axis machine.cores = ,\n",
        "axis machine.cores = 8,, 16\n",
        "zip workload = cholesky, qr\n", // arity 1 row of 2
        "zip a, b = 1 | 2, 3, 4\n",
        "zip workload, workload.granularity = cholesky\n",
        "metrics =\n",
        "metrics = [[[\n",
        "label = {unclosed\n",
        "set runtime = tdm \\", // continuation into EOF
        "set runtime = \\\n\\\n\\\n",
        std::string("set runtime = tdm\n") + std::string(1 << 16, 'x'),
        std::string(1 << 16, '\\'),
        std::string("axis machine.cores = ") +
            std::string(4096, ',') + "\n",
        std::string("set runtime = t\0dm\n", 19),
        "\xff\xfe set runtime = tdm\n",
        "set runtime = tdm\r\nset scheduler = age\r\n",
        "# comment only\n# and more\n",
    };
    for (std::size_t i = 0; i < nasty.size(); ++i) {
        SCOPED_TRACE("nasty[" + std::to_string(i) + "]");
        EXPECT_NO_FATAL_FAILURE(parseMustNotCrash(nasty[i]));
    }
    // And the seed corpus itself must be valid, or the mutation runs
    // below are fuzzing garbage against garbage.
    ASSERT_TRUE(parseMustNotCrash(kValidCampaign));
}

TEST(SpecFuzz, MutatedCampaignFiles)
{
    const std::string seedText(kValidCampaign);
    FuzzRng rng(0x7dab5eed);
    const char garbage[] = "=,|\\{}[]#\n\t\0\x80\xff ";

    int parsedOk = 0;
    for (int round = 0; round < 3000; ++round) {
        std::string text = seedText;
        const int edits = 1 + static_cast<int>(rng.pick(4));
        for (int e = 0; e < edits; ++e) {
            switch (rng.pick(4)) {
            case 0: // flip one byte to a syntax-relevant character
                text[rng.pick(text.size())] =
                    garbage[rng.pick(sizeof(garbage) - 1)];
                break;
            case 1: // truncate
                text.resize(rng.pick(text.size()) + 1);
                break;
            case 2: // splice a random slice of the file into itself
            {
                const std::size_t from = rng.pick(text.size());
                const std::size_t len =
                    rng.pick(text.size() - from) + 1;
                const std::string slice = text.substr(from, len);
                text.insert(rng.pick(text.size()), slice);
                break;
            }
            default: // delete a slice
            {
                const std::size_t from = rng.pick(text.size());
                text.erase(from, rng.pick(text.size() - from) + 1);
                if (text.empty())
                    text.push_back('\n');
                break;
            }
            }
        }
        if (parseMustNotCrash(text))
            ++parsedOk;
    }
    // Sanity on the corpus shape: mutations must produce both
    // accepted and rejected inputs, or the fuzz is one-sided.
    EXPECT_GT(parsedOk, 0);
    EXPECT_LT(parsedOk, 3000);
}

TEST(SpecFuzz, MalformedSpecKeyValues)
{
    // applyKey is the other text doorway: every key/value from CLI
    // --set flags and campaign lines lands here. Same contract:
    // SpecError or success.
    FuzzRng rng(0xc0ffee);
    std::vector<std::string> keys = {"runtime", "scheduler",
                                     "machine.cores", "workload",
                                     "workload.granularity",
                                     "dmu.tat_entries"};
    const std::vector<std::string> values = {
        "", " ", "0", "-1", "999999999999999999999", "1.5", "nan",
        "inf", "-inf", "1e309", "true", "false", "yes", "tdm", "fifo",
        "cholesky", "no-such-thing", "0x41", "8 ", " 8", "8\t",
        std::string(65536, '9'), std::string("a\0b", 3), "\xff\xfe",
        "{label}", "*", "..", "=",
    };
    // Mutated keys too: near-misses drive the suggestion machinery.
    for (int i = 0; i < 200; ++i) {
        std::string k = keys[rng.pick(keys.size())];
        k[rng.pick(k.size())] =
            static_cast<char>('a' + rng.pick(26));
        keys.push_back(k);
    }

    int applied = 0;
    for (const auto &key : keys) {
        for (const auto &value : values) {
            Experiment exp;
            try {
                spec::applyKey(exp, key, value);
                ++applied;
            } catch (const spec::SpecError &) {
                // rejected cleanly: fine
            }
        }
    }
    EXPECT_GT(applied, 0); // some (key, value) pairs are valid
}

// ---- result records ------------------------------------------------------

namespace {

/** Mutants per record reader; sized to keep the sanitizer run ~1 s. */
constexpr int kRecordMutants = 1200;

/** One byte-level mutation of @p text: flip a bit, drop a byte,
 *  duplicate a byte, or truncate. */
std::string
mutate(std::string text, FuzzRng &rng)
{
    const std::size_t at = rng.pick(text.size());
    switch (rng.pick(4)) {
    case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << rng.pick(8)));
        break;
    case 1:
        text.erase(at, 1);
        break;
    case 2:
        text.insert(at, 1, text[at]);
        break;
    default:
        text.resize(at);
        break;
    }
    return text;
}

/** A real record: the lu/tdm/fifo golden run, as the engine serves it. */
const campaign::JobResult &
goldenJob()
{
    static const campaign::JobResult job = [] {
        Experiment e;
        e.workload = "lu";
        e.runtime = tdm::core::RuntimeType::Tdm;
        e.config.scheduler = "fifo";
        campaign::CampaignEngine engine;
        return engine.run("golden", {{"lu/tdm/fifo", e}}).jobs.at(0);
    }();
    return job;
}

/** Every headline field equal and every metric bit-identical. */
void
expectSameSummary(const RunSummary &got, const RunSummary &want)
{
    for (const HeadlineField &f : kHeadlineFields)
        std::visit([&](auto m) { EXPECT_EQ(got.*m, want.*m) << f.name; },
                   f.member);
    ASSERT_EQ(got.metrics().size(), want.metrics().size());
    auto it = want.metrics().entries().begin();
    for (const auto &[key, v] : got.metrics().entries()) {
        EXPECT_EQ(key, it->first);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                  std::bit_cast<std::uint64_t>(it->second))
            << key;
        ++it;
    }
}

} // namespace

TEST(RecordFuzz, MutatedStoreBlobsAreRejectedOrExact)
{
    const campaign::JobResult &job = goldenJob();
    ASSERT_TRUE(job.ok());
    const unsigned schema = service::ResultStore::kSchemaVersion;
    const std::string key = job.digest + ";golden";
    std::ostringstream os;
    service::writeSummaryBlob(os, key, job.summary, schema);
    const std::string blob = os.str();

    auto read = [&](const std::string &bytes, std::string &key_out,
                    RunSummary &out) {
        std::istringstream is(bytes);
        return service::readSummaryBlob(is, key_out, out, schema);
    };
    std::string gotKey;
    RunSummary got;
    ASSERT_TRUE(read(blob, gotKey, got));
    expectSameSummary(got, job.summary);

    FuzzRng rng(0x5107eb10b);
    int rejected = 0;
    for (int round = 0; round < kRecordMutants; ++round) {
        const std::string mutant = mutate(blob, rng);
        if (!read(mutant, gotKey, got)) {
            ++rejected;
            continue;
        }
        SCOPED_TRACE("accepted mutant " + std::to_string(round));
        EXPECT_EQ(gotKey, key);
        expectSameSummary(got, job.summary);
    }
    EXPECT_GT(rejected, kRecordMutants / 2);
}

TEST(RecordFuzz, MutatedPointEventsAreRejectedOrExact)
{
    const campaign::JobResult &job = goldenJob();
    tdm::driver::report::Text os;
    service::writePoint(os, 3, job, 5, 9, tdm::sim::MetricSelection());
    std::string line = os.str();
    line.pop_back(); // the reader strips the newline

    campaign::JobResult got;
    std::size_t index = 0, total = 0;
    auto expectExact = [&] {
        EXPECT_EQ(index, 5u);
        EXPECT_EQ(total, 9u);
        EXPECT_EQ(got.label, job.label);
        EXPECT_EQ(got.digest, job.digest);
        EXPECT_EQ(got.source, job.source);
        EXPECT_EQ(got.error, job.error);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wallMs),
                  std::bit_cast<std::uint64_t>(job.wallMs));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.doneAtMs),
                  std::bit_cast<std::uint64_t>(job.doneAtMs));
        expectSameSummary(got.summary, job.summary);
    };
    ASSERT_TRUE(service::decodePointEvent(line, got, index, total));
    expectExact();

    FuzzRng rng(0x9017e7e47);
    int rejected = 0;
    for (int round = 0; round < kRecordMutants; ++round) {
        const std::string mutant = mutate(line, rng);
        // The client reads a line that fails as a point event as any
        // other event, so that reader sees the damage too.
        service::ServiceEvent event;
        std::string error;
        (void)service::decodeEvent(mutant, event, error);
        if (!service::decodePointEvent(mutant, got, index, total)) {
            ++rejected;
            continue;
        }
        SCOPED_TRACE("accepted mutant " + std::to_string(round));
        expectExact();
    }
    EXPECT_GT(rejected, kRecordMutants / 2);
}

// ---- requests ------------------------------------------------------------

namespace {

/** Mutants per request parser; sized to keep the sanitizer run < 1 s. */
constexpr int kRequestMutants = 2000;

/** One to three stacked mutate() rounds; stops early on empty text. */
std::string
mutateSome(std::string text, FuzzRng &rng)
{
    for (std::size_t n = 1 + rng.pick(3); n > 0 && !text.empty(); --n)
        text = mutate(std::move(text), rng);
    return text;
}

/** The valid request lines the request mutants start from. */
const std::string kRequestSeeds[] = {
    R"({"op":"submit","name":"sweep","metrics":"dmu.*",)"
    R"("set":{"runtime":"tdm"},)"
    R"("campaign":"axis machine.cores = 16, 32\nset workload = lu\n"})",
    R"({"op":"submit","name":"grid","set":{"machine.cores":16},)"
    R"("points":[{"label":"a","spec":{"workload":"cholesky"}},)"
    R"({"spec":{"workload":"qr","workload.seed":7}}]})",
};

/** What parseRequest makes of @p line: the refusal message, or the op
 *  and every SubmitRequest field, strings quoted and escaped. */
std::string
requestOutcome(const std::string &line)
{
    service::Request req;
    std::string error;
    if (!service::parseRequest(line, req, error))
        return "refused: " + error;
    const char *const ops[] = {"ping", "status", "shutdown", "submit"};
    std::string out = ops[static_cast<int>(req.op)];
    auto str = [&](const std::string &v) {
        out += " \"" + report::jsonEscape(v) + '"';
    };
    auto entries = [&](const auto &spec) {
        out += " {";
        for (const auto &[k, v] : spec) {
            str(k);
            str(v);
        }
        out += " }";
    };
    const service::SubmitRequest &s = req.submit;
    str(s.name);
    str(s.metrics);
    str(s.campaignText);
    entries(s.set);
    out += " [";
    for (const service::SubmitRequest::Point &p : s.points) {
        str(p.label);
        entries(p.spec);
    }
    out += " ]";
    return out;
}

} // namespace

TEST(RequestFuzz, MutatedRequestLinesAreRefusedWithAMessage)
{
    const auto &seeds = kRequestSeeds;
    for (const std::string &seed : seeds) {
        service::Request req;
        std::string error;
        ASSERT_TRUE(service::parseRequest(seed, req, error)) << error;
        ASSERT_NO_THROW((void)service::buildCampaign(req.submit)) << seed;
    }

    FuzzRng rng(0x4e90e57);
    int refused = 0, built = 0;
    for (int round = 0; round < kRequestMutants; ++round) {
        const std::string mutant =
            mutateSome(seeds[round % std::size(seeds)], rng);
        SCOPED_TRACE("mutant " + std::to_string(round) + ": " + mutant);
        service::Request req;
        std::string error;
        if (!service::parseRequest(mutant, req, error)) {
            EXPECT_FALSE(error.empty());
            ++refused;
            continue;
        }
        if (req.op != service::RequestOp::Submit)
            continue;
        // Anything but SpecError escapes and fails the test.
        try {
            (void)service::buildCampaign(req.submit);
            ++built;
        } catch (const spec::SpecError &) {
        }
    }
    EXPECT_GT(refused, kRequestMutants / 2);
    EXPECT_GT(built, 0);
}

TEST(RequestFuzz, MutatedRequestLineOutcomesArePinned)
{
    // The same mutant stream as above, every outcome pinned at once:
    // for an accepted line its op and every SubmitRequest field, for
    // a refused one the exact message.
    FuzzRng rng(0x4e90e57);
    std::string outcomes;
    for (int round = 0; round < kRequestMutants; ++round) {
        outcomes += requestOutcome(
            mutateSome(kRequestSeeds[round % std::size(kRequestSeeds)], rng));
        outcomes += '\n';
    }
    EXPECT_EQ(campaign::digestOfKey(outcomes), "738c20d7931b3264");
}

TEST(RequestFuzz, RequestEdgeCasesReadAsPinned)
{
    const std::string deep =
        R"({"op":"ping","x":)" + std::string(100000, '[');
    const std::pair<std::string, std::string> cases[] = {
        // The first of a repeated member counts.
        {R"({"op":"ping","op":"shutdown"})", "ping \"\" \"\" \"\" { } [ ]"},
        {R"({"op":"submit","points":[{"label":"a","spec":{"k":"1"}}],)"
         R"("points":[{"label":"b","spec":{"k":"2"}}]})",
         "submit \"\" \"\" \"\" { } [ \"a\" { \"k\" \"1\" } ]"},
        {R"({"op":"submit","name":"a","name":"b","campaign":"x",)"
         R"("campaign":5})",
         "submit \"a\" \"\" \"x\" { } [ ]"},
        // Not an object, trailing bytes, nothing at all.
        {"[1]", "refused: request must be a JSON object"},
        {R"({"op":"ping"} x)", "refused: trailing characters after JSON value"},
        {R"({"op":"ping"}})", "refused: trailing characters after JSON value"},
        {"", "refused: unexpected end of input at offset 0"},
        {"   ", "refused: unexpected end of input at offset 3"},
        // Unknown members are checked, under the nesting cap.
        {deep, "refused: nesting too deep at offset 81"},
        {R"({"op":"ping","x":[1,]})", "refused: malformed number at offset 20"},
        {R"({"op":"status","name":"n","set":{"a":"1"},)"
         R"("points":[{"spec":{}}]})",
         "status \"\" \"\" \"\" { } [ ]"},
        {R"({"op":"ping","set":5,"points":"x","name":null})",
         "ping \"\" \"\" \"\" { } [ ]"},
        // Values: null reads as "", scalars as written.
        {R"({"op":"submit","name":null,"metrics":7,"campaign":"c"})",
         "submit \"\" \"\" \"c\" { } [ ]"},
        {R"({"op":"submit","points":[{"spec":{"e":"\u0041\ud83d\ude00",)"
         R"("m":2305843009213706617,"t":true,"f":false,"n":-1.5e2,)"
         R"("e":"dup"}}]})",
         "submit \"\" \"\" \"\" { } [ \"\" { \"e\" \"A\xF0\x9F\x98\x80\" "
         "\"m\" \"2305843009213706617\" \"t\" \"true\" \"f\" \"false\" "
         "\"n\" \"-1.5e2\" \"e\" \"dup\" } ]"},
        {R"({"op":"submit","set":{"a":"1","b":2},"points":)"
         R"([{"label":7,"spec":{}},{"spec":{"k":"v"},"spec":5}]})",
         "submit \"\" \"\" \"\" { \"a\" \"1\" \"b\" \"2\" } "
         "[ \"\" { } \"\" { \"k\" \"v\" } ]"},
        // Faults in order of precedence.
        {R"({"points":5,"op":"frob"})", "refused: unknown op \"frob\""},
        {R"({"op":5,"op":"ping"})", "refused: missing \"op\""},
        {R"({"set":[],"op":"submit","metrics":"a,,b","points":[1]})",
         "refused: empty glob in metric selection 'a,,b'"},
        {R"({"op":"submit","points":[1],"set":{"a":"1","b":null}})",
         "refused: set.b must be a string, number, or bool"},
        {R"({"op":"submit","set":5})", "refused: set must be an object"},
        {R"({"op":"submit","campaign":5,"points":[1]})",
         "refused: submit needs exactly one of \"campaign\" or \"points\""},
        {R"({"op":"submit","points":[1],"set":[]})",
         "refused: set must be an object"},
        {R"({"op":"submit","points":[1],"campaign":"c"})",
         "refused: submit needs exactly one of \"campaign\" or \"points\""},
        {R"({"op":"submit"})",
         "refused: submit needs exactly one of \"campaign\" or \"points\""},
        {R"({"op":"submit","campaign":5})",
         "refused: \"campaign\" must be a string"},
        {R"({"op":"submit","points":{}})",
         "refused: \"points\" must be a non-empty array"},
        {R"({"op":"submit","points":[]})",
         "refused: \"points\" must be a non-empty array"},
        {R"({"op":"submit","points":[{"spec":{}},1,{}]})",
         "refused: each point must be an object"},
        {R"({"op":"submit","points":[{"label":"a"},{"spec":5}]})",
         "refused: each point needs a \"spec\" object"},
        {R"({"op":"submit","points":[{"spec":5},{"spec":{"a":[]}}]})",
         "refused: spec must be an object"},
        {R"({"op":"submit","points":[{"spec":{"a":"1","b":[],"c":{}}}]})",
         "refused: spec.b must be a string, number, or bool"},
        {R"({"op":"submit","points":[{"spec":{"a":[]}}],"x":[1,]})",
         "refused: malformed number at offset 51"},
        {R"({"op":"submit","points":[{"spec":{"a":)" + std::string(70, '[')
             + "}}]}",
         "refused: nesting too deep at offset 99"},
        // Malformed JSON.
        {"{", "refused: expected string at offset 1"},
        {R"({"a":})", "refused: malformed number at offset 5"},
        {"[1,]", "refused: malformed number at offset 3"},
        {R"({"a":1}trailing)", "refused: trailing characters after JSON value"},
        {R"("\q")", "refused: unknown escape at offset 3"},
        {R"({"a" 1})", "refused: expected ':' at offset 5"},
        {"nul", "refused: expected 'null' at offset 0"},
        {"01", "refused: malformed number at offset 2"},
        {"--1", "refused: malformed number at offset 1"},
        {R"("unterminated)", "refused: unterminated string at offset 13"},
        {R"({"op":"ping","x":"\ud800"})",
         "refused: unpaired surrogate at offset 24"},
        {R"({"op":"ping","x":"\u12"})",
         "refused: bad hex digit in \\u escape at offset 23"},
        {"{\"op\":\"ping\",\"x\":\"a\tb\"}",
         "refused: unescaped control character in string at offset 19"},
        {R"({"op":"ping","x":1.})", "refused: malformed number at offset 19"},
        {R"({"op":"ping",})", "refused: expected string at offset 13"},
        {R"({"op":"ping" "x":1})", "refused: expected ',' or '}' at offset 13"},
        {R"({op:"ping"})", "refused: expected string at offset 1"},
    };
    for (const auto &[line, want] : cases)
        EXPECT_EQ(requestOutcome(line), want) << line.substr(0, 80);
}

TEST(RequestFuzz, MutatedHttpHeadsParseAlikeWholeAndByteByByte)
{
    using State = service::HttpParser::State;
    const std::string seed =
        "GET /api/campaign/1/points?from=2&q=a%20b+c HTTP/1.1\r\n"
        "Host: 127.0.0.1:8080\r\n"
        "Accept: text/event-stream\r\n"
        "Content-Length: 0\r\n"
        "\r\n";
    {
        service::HttpParser p;
        ASSERT_EQ(p.feed(seed.data(), seed.size()), State::Done);
    }

    FuzzRng rng(0x477bfee7);
    int errors = 0, done = 0;
    for (int round = 0; round < kRequestMutants; ++round) {
        const std::string mutant = mutateSome(seed, rng);
        SCOPED_TRACE("mutant " + std::to_string(round));
        service::HttpParser whole;
        whole.feed(mutant.data(), mutant.size());
        service::HttpParser bytes;
        for (char c : mutant)
            bytes.feed(&c, 1);
        ASSERT_EQ(whole.state(), bytes.state());
        if (whole.state() == State::Error) {
            ++errors;
            EXPECT_EQ(whole.status(), bytes.status());
            EXPECT_EQ(whole.reason(), bytes.reason());
            EXPECT_TRUE(whole.status() == 400 || whole.status() == 431
                        || whole.status() == 505)
                << whole.status();
            EXPECT_FALSE(whole.reason().empty());
        } else if (whole.state() == State::Done) {
            ++done;
            const service::HttpRequest &a = whole.request();
            const service::HttpRequest &b = bytes.request();
            EXPECT_EQ(a.method, b.method);
            EXPECT_EQ(a.target, b.target);
            EXPECT_EQ(a.path, b.path);
            EXPECT_EQ(a.query, b.query);
            EXPECT_EQ(a.headers, b.headers);
        }
    }
    EXPECT_GT(errors, 0);
    EXPECT_GT(done, 0);
}
