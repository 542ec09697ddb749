/**
 * @file
 * Tests for the artifact path derivation in bench/bench_util.h: which
 * manifest, shard directory, profile sidecar and telemetry JSONL paths a
 * bench writes for a given set of --csv/--json/--manifest/
 * --interval-stats flags. Resume and distributed runs find their
 * manifests by these names, so they must not drift.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace udp::bench {
namespace {

/** parseSinkArgs over @p flags, as if passed after the program name. */
SinkArgs
parse(std::vector<std::string> flags)
{
    std::vector<char*> argv = {const_cast<char*>("bench")};
    for (std::string& f : flags) {
        argv.push_back(f.data());
    }
    return parseSinkArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArtifactPaths, CsvDerivesManifestShardsAndProfile)
{
    SinkArgs a = parse({"--csv", "a/x.csv"});
    EXPECT_EQ(defaultManifestPath(a), "a/x.manifest.jsonl");
    EXPECT_EQ(shardDirOf(a), "a/x.manifest.jsonl.shards");
    EXPECT_EQ(profileJsonlPath(a), "a/x.profile.jsonl");
}

TEST(BenchArtifactPaths, JsonDerivesManifestAndProfile)
{
    SinkArgs a = parse({"--json", "x.jsonl"});
    EXPECT_EQ(defaultManifestPath(a), "x.manifest.jsonl");
    EXPECT_EQ(profileJsonlPath(a), "x.profile.jsonl");

    SinkArgs j = parse({"--json", "out/r.json"});
    EXPECT_EQ(defaultManifestPath(j), "out/r.manifest.jsonl");
    EXPECT_EQ(profileJsonlPath(j), "out/r.profile.jsonl");
}

TEST(BenchArtifactPaths, ManifestPrefersCsvAndProfilePrefersJson)
{
    SinkArgs a = parse({"--json", "j.jsonl", "--csv", "c.csv"});
    EXPECT_EQ(defaultManifestPath(a), "c.manifest.jsonl");
    EXPECT_EQ(profileJsonlPath(a), "j.profile.jsonl");
}

TEST(BenchArtifactPaths, UnknownExtensionIsKept)
{
    SinkArgs a = parse({"--csv", "run.txt"});
    EXPECT_EQ(defaultManifestPath(a), "run.txt.manifest.jsonl");
    EXPECT_EQ(profileJsonlPath(a), "run.txt.profile.jsonl");

    // A bare extension is a name, not a suffix to strip.
    SinkArgs bare = parse({"--csv", ".csv"});
    EXPECT_EQ(defaultManifestPath(bare), ".csv.manifest.jsonl");
}

TEST(BenchArtifactPaths, ExplicitManifestWins)
{
    SinkArgs a = parse({"--csv", "a/x.csv", "--manifest", "m/run.jsonl"});
    EXPECT_EQ(defaultManifestPath(a), "m/run.jsonl");
    EXPECT_EQ(shardDirOf(a), "m/run.jsonl.shards");
    EXPECT_EQ(profileJsonlPath(a), "a/x.profile.jsonl");
}

TEST(BenchArtifactPaths, NoArtifactDerivesNothing)
{
    SinkArgs a = parse({});
    EXPECT_EQ(defaultManifestPath(a), "");
    EXPECT_EQ(shardDirOf(a), "");
    EXPECT_EQ(profileJsonlPath(a), "");
}

TEST(BenchArtifactPaths, IntervalStatsJsonlSibling)
{
    EXPECT_EQ(telemetryJsonlPath(parse({"--interval-stats", "t.csv"})
                                     .intervalPath),
              "t.jsonl");
    // Only ".csv" is replaced: a ".jsonl" interval path must not map
    // onto itself, or the CSV and JSONL writers would share one file.
    EXPECT_EQ(telemetryJsonlPath("t.jsonl"), "t.jsonl.jsonl");
    EXPECT_EQ(telemetryJsonlPath("dir/t"), "dir/t.jsonl");
}

} // namespace
} // namespace udp::bench
