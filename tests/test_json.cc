/**
 * @file
 * Tests for the JSON reader (stats/json.h) and the four formats built on
 * it: Report lines (stats/sink.h), manifest lines (sim/manifest.h), sweep
 * specs (sim/sweepd.h) and the status surface (obs/status.h). Covers the
 * reader's grammar and number rules, a table of known-bad inputs, and a
 * seeded fuzz of every format's own writer output: truncations, padding
 * and bit flips never crash, and any accepted mutant reaches a fixed
 * point after one write.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "obs/status.h"
#include "sim/manifest.h"
#include "sim/runner.h"
#include "sim/sweepd.h"
#include "stats/json.h"
#include "stats/sink.h"

namespace udp {
namespace {

TEST(Json, ReadsNestedValuesAndKeepsRawSpans)
{
    const std::string text =
        " {\"a\": [1, \"x\\n\\u0041\", {\"b\": []}],\n"
        "  \"c\" : -0.5e+3 , \"d\": \"7\", \"e\": {}} ";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(text, &v, &err)) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.keys, (std::vector<std::string>{"a", "c", "d", "e"}));
    const JsonValue* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    EXPECT_EQ(a->raw, "[1, \"x\\n\\u0041\", {\"b\": []}]");
    ASSERT_EQ(a->items.size(), 3u);
    std::string s;
    ASSERT_TRUE(a->items[1].as(&s));
    EXPECT_EQ(s, "x\nA");
    EXPECT_EQ(a->items[2].find("b")->raw, "[]");
    double c = 0.0;
    ASSERT_TRUE(v.get("c", &c));
    EXPECT_EQ(c, -500.0);
    EXPECT_EQ(v.find("e")->raw, "{}");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(a->find("a"), nullptr); // find() is for objects only
    EXPECT_FALSE(v.get("d", &c));     // present but mistyped
    EXPECT_TRUE(v.getOptional("missing", &c));
    EXPECT_FALSE(v.getOptional("a", &c));
}

TEST(Json, RejectsMalformedText)
{
    for (const char* bad :
         {"", " ", "{", "}", "{}x", "{} {}", "[1,]", "[,1]", "{\"a\":1,}",
          "{,}", "{\"a\" 1}", "{\"a\":1 \"b\":2}", "{\"a\":1,\"a\":2}",
          "{a:1}", "{'a':1}", "01", "1.", ".5", "-", "+1", "1e", "1e+",
          "0x10", "nan", "inf", "true", "null", "\"abc", "\"\\x\"",
          "\"\\u12g4\"", "\"\\u12\"", "\"a\\"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(bad, &v, &err)) << "accepted: " << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    // Hostile nesting is refused before it can exhaust the stack.
    JsonValue v;
    EXPECT_FALSE(parseJson(std::string(100000, '['), &v));
    std::string deep = std::string(60, '[') + std::string(60, ']');
    EXPECT_TRUE(parseJson(deep, &v));
}

TEST(Json, ErrorsNameTheOffsetAndTheInnermostKey)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"outer\":{\"inner\":[1,]}}", &v, &err));
    EXPECT_NE(err.find("byte 21"), std::string::npos) << err;
    EXPECT_NE(err.find("\"inner\""), std::string::npos) << err;
    EXPECT_FALSE(parseJson("{\"a\":{\"b\":1},\"c\":2,}", &v, &err));
    EXPECT_NE(err.find("\"c\""), std::string::npos) << err;
    EXPECT_FALSE(parseJson("{\"a\":1,\"a\":2}", &v, &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(Json, NumbersConvertOnlyAsWholeTokensInRange)
{
    auto u64 = [](const std::string& text, std::uint64_t* out) {
        JsonValue v;
        return parseJson(text, &v) && v.as(out);
    };
    auto f64 = [](const std::string& text, double* out) {
        JsonValue v;
        return parseJson(text, &v) && v.as(out);
    };
    std::uint64_t u = 0;
    EXPECT_TRUE(u64("18446744073709551615", &u));
    EXPECT_EQ(u, 18446744073709551615ull);
    EXPECT_TRUE(u64("0", &u));
    EXPECT_EQ(u, 0u);
    for (const char* bad : {"18446744073709551616", "1e6", "-1", "-0", "1.0",
                            "\"7\"", "[7]"}) {
        EXPECT_FALSE(u64(bad, &u)) << bad;
    }
    double d = 0.0;
    EXPECT_TRUE(f64("0.1", &d));
    EXPECT_EQ(d, 0.1);
    EXPECT_TRUE(f64("1e6", &d));
    EXPECT_EQ(d, 1e6);
    EXPECT_TRUE(f64("-2.5E-3", &d));
    EXPECT_EQ(d, -2.5e-3);
    EXPECT_FALSE(f64("1e999", &d));
    EXPECT_FALSE(f64("\"1\"", &d));
}

// --- known-bad inputs ------------------------------------------------------

const char* const kConfigs =
    "\"configs\":[{\"label\":\"a\",\"preset\":\"fdip\"";

/**
 * Inputs that the hand-rolled scanners this reader replaced accepted,
 * each silently misread: a spec number cut at its first non-digit or
 * wrapped, a mistyped ftq taken as 0, a key found inside a nested value,
 * syntax errors ignored, a manifest index cut or wrapped, and report
 * lines with a missing comma, trailing bytes or a duplicate key. Every
 * one is now refused; a refused spec names the key at fault.
 */
TEST(Json, KnownBadInputsAreRejected)
{
    const std::string spec =
        std::string("{\"warmup_instrs\":1000,\"measure_instrs\":2000,") +
        kConfigs;
    const std::string specBody =
        std::string(",\"measure_instrs\":2000,") + kConfigs + "}]}";
    struct SpecRow
    {
        std::string text;
        std::string key;
    };
    const std::vector<SpecRow> specs = {
        {"{\"warmup_instrs\":1e6" + specBody, "warmup_instrs"},
        {"{\"warmup_instrs\":99999999999999999999" + specBody,
         "warmup_instrs"},
        {spec + ",\"ftq\":\"32\"}]}", "ftq"},
        {spec + ",\"ftq\":-8}]}", "ftq"},
        {spec + ",\"ftq\":4294967328}]}", "ftq"},
        {"{\"name\":{\"warmup_instrs\":7},\"warmup_instrs\":1000" + specBody,
         "name"},
        {spec + "},]}", "configs"},
        {spec + "}],}", "configs"},
        {spec + "}]}garbage", "configs"},
    };
    SweepSpec good;
    std::string err;
    ASSERT_TRUE(sweepSpecFromJson(spec + "}]}", &good, &err)) << err;
    for (const SpecRow& row : specs) {
        SweepSpec s;
        err.clear();
        EXPECT_FALSE(sweepSpecFromJson(row.text, &s, &err))
            << "accepted: " << row.text;
        EXPECT_NE(err.find(row.key), std::string::npos)
            << row.text << " -> " << err;
    }

    const std::string manifestTail =
        ",\"workload\":\"w\",\"config\":\"c\",\"status\":\"failed\","
        "\"error_kind\":\"crash\"}";
    ManifestEntry e;
    ASSERT_TRUE(manifestEntryFromJsonLine(
        "{\"hash\":\"00000000000000aa\",\"index\":3" + manifestTail, &e));
    for (const char* index : {"3x", "99999999999999999999"}) {
        std::string line =
            std::string("{\"hash\":\"00000000000000aa\",\"index\":") +
            index + manifestTail;
        EXPECT_FALSE(manifestEntryFromJsonLine(line, &e)) << line;
    }

    Report r;
    ASSERT_TRUE(reportFromJsonLine(
        "{\"workload\":\"x\",\"config\":\"c\",\"ipc\":1.5}", &r));
    for (const char* line :
         {"{\"workload\":\"x\"\"config\":\"c\",\"ipc\":1.5}",
          "{\"workload\":\"x\",\"config\":\"c\",\"ipc\":1.5}x",
          "{\"workload\":\"x\",\"config\":\"c\",\"ipc\":1.5,\"ipc\":2.5}"}) {
        EXPECT_FALSE(reportFromJsonLine(line, &r)) << line;
    }
    // Counters are whole numbers in uint64 range.
    for (const char* line : {"{\"cycles\":-1}", "{\"cycles\":1.5}",
                             "{\"cycles\":1e20}"}) {
        EXPECT_FALSE(reportFromJsonLine(line, &r)) << line;
    }
    ASSERT_TRUE(reportFromJsonLine("{\"cycles\":1e6}", &r));
    EXPECT_EQ(r.cycles, 1000000u);
}

// --- seeded fuzz of the four formats ---------------------------------------

/** Parses one line of a format and writes it back; nullopt = rejected. */
using Rewrite = std::function<std::optional<std::string>(const std::string&)>;

struct Format
{
    std::string name;
    std::vector<std::string> seeds; ///< valid lines from the format's writer
    Rewrite rewrite;
};

Report
fuzzReport()
{
    Report r;
    r.workload = "mysql \"q\"\t\\";
    r.configName = "udp8k";
    r.instructions = 400000;
    r.cycles = 523417;
    r.ipc = 0.7642124779439223;
    r.icacheMpki = 12.3456789;
    r.mshrHitsPki = 1e-7;
    r.timeliness = 0.5;
    r.l1HitRatio = 0.9876543210987654;
    r.lostInstrPerKilo = 123.25;
    r.prefetchesEmitted = 98765;
    r.onPathRatio = 1.0 / 3.0;
    r.usefulness = 0.25;
    r.usefulnessHw = 1.0;
    r.avgFtqOccupancy = 17.125;
    r.branchMpki = 3.14159;
    r.condMispredictRate = 0.0123;
    r.resteers = 4321;
    r.decodeCorrections = 12;
    r.udpDropped = 7;
    r.udpFilteredEmits = 8;
    r.udpLearned = 9;
    return r;
}

std::vector<Format>
fuzzFormats()
{
    std::vector<Format> formats;
    Report r = fuzzReport();
    formats.push_back(
        {"report",
         {reportToJsonLine(r)},
         [](const std::string& line) -> std::optional<std::string> {
             Report parsed;
             if (!reportFromJsonLine(line, &parsed)) {
                 return std::nullopt;
             }
             return reportToJsonLine(parsed);
         }});

    ManifestEntry ok;
    ok.hash = 0x0123456789abcdefull;
    ok.index = 17;
    ok.workload = r.workload;
    ok.label = r.configName;
    ok.worker = "local-0";
    ok.ok = true;
    ok.reportJson = reportToJsonLine(r);
    ManifestEntry failed;
    failed.hash = 42;
    failed.index = 3;
    failed.workload = "clang";
    failed.label = "eip8k";
    failed.errorKind = "timeout";
    formats.push_back(
        {"manifest",
         {manifestEntryToJsonLine(ok), manifestEntryToJsonLine(failed)},
         [](const std::string& line) -> std::optional<std::string> {
             ManifestEntry parsed;
             if (!manifestEntryFromJsonLine(line, &parsed)) {
                 return std::nullopt;
             }
             return manifestEntryToJsonLine(parsed);
         }});

    SweepSpec spec;
    spec.name = "fuzz \"spec\"";
    spec.warmupInstrs = 5000;
    spec.measureInstrs = 10000;
    spec.workloads = {"mediawiki", "drupal"};
    spec.configs = {{"fdip16", "fdip", 16}, {"udp8k", "udp8k", 0}};
    formats.push_back(
        {"spec",
         {sweepSpecToJson(spec)},
         [](const std::string& line) -> std::optional<std::string> {
             SweepSpec parsed;
             std::string err;
             if (!sweepSpecFromJson(line, &parsed, &err)) {
                 return std::nullopt;
             }
             return sweepSpecToJson(parsed);
         }});

    obs::SweepStatus st;
    st.name = "fig13";
    st.transport = "tcp";
    st.tsMs = 1723190400123ull;
    st.total = 40;
    st.done = 12;
    st.failed = 1;
    st.pending = 20;
    st.leased = 7;
    st.elapsedSec = 34.5;
    st.etaSec = -1.0;
    st.jobStates = "DDFLP";
    obs::WorkerStatusRow w;
    w.name = "w\"1";
    w.activeLeases = 2;
    w.claims = 10;
    w.lastSeenSec = 0.25;
    st.workers = {w, w};
    st.workers[1].name = "w2";
    st.metricsJson = "{\"sweepd.jobs_final\":13,\"x.p99\":-4}";
    formats.push_back(
        {"status",
         {obs::sweepStatusToJson(st)},
         [](const std::string& line) -> std::optional<std::string> {
             obs::SweepStatus parsed;
             if (!obs::sweepStatusFromJson(line, &parsed)) {
                 return std::nullopt;
             }
             return obs::sweepStatusToJson(parsed);
         }});
    return formats;
}

/**
 * Seeded fuzz of every format, modelled on the queue's frame fuzz
 * (TcpQueueServer.MalformedFramesNeverReachAHandler): from each valid
 * writer line, every truncation and 1-3 trailing junk bytes must be
 * rejected, and of 100 bit-flip mutants any the parser accepts must
 * reach a fixed point: parse -> write -> parse -> write reproduces the
 * first write byte for byte. Run under ASan/UBSan in CI, it also checks
 * that no mutant reads out of bounds or trips undefined behaviour.
 */
TEST(Json, FuzzedArtifactsNeverCrashAndReparseToAFixedPoint)
{
    std::mt19937_64 rng(20261019);
    for (const Format& f : fuzzFormats()) {
        std::size_t accepted = 0;
        for (const std::string& seed : f.seeds) {
            std::optional<std::string> base = f.rewrite(seed);
            ASSERT_TRUE(base) << f.name << " rejects its own writer";
            EXPECT_EQ(*base, seed) << f.name;
            for (std::size_t n = 0; n < seed.size(); ++n) {
                EXPECT_FALSE(f.rewrite(seed.substr(0, n)))
                    << f.name << " accepted a " << n << "-byte truncation";
            }
            for (std::size_t extra = 1; extra <= 3; ++extra) {
                EXPECT_FALSE(f.rewrite(seed + std::string(extra, '\x5a')))
                    << f.name << " accepted " << extra << " junk bytes";
            }
            for (int k = 0; k < 100; ++k) {
                std::string m = seed;
                int flips = 1 + static_cast<int>(rng() % 3);
                for (int b = 0; b < flips; ++b) {
                    std::size_t bit = rng() % (m.size() * 8);
                    m[bit / 8] =
                        static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
                }
                std::optional<std::string> once = f.rewrite(m);
                if (!once) {
                    continue;
                }
                ++accepted;
                std::optional<std::string> twice = f.rewrite(*once);
                ASSERT_TRUE(twice)
                    << f.name << " rejects its own rewrite of " << m;
                EXPECT_EQ(*twice, *once) << f.name << " mutant " << m;
            }
        }
        // Flips in digits and string bytes stay valid: the fixed-point
        // check must have run.
        EXPECT_GT(accepted, 0u) << f.name;
    }
}

} // namespace
} // namespace udp
