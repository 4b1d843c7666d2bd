#include "graph/io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

DiGraph SmallGraph() {
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdges({{0, 1}, {1, 2}, {2, 0}, {0, 3}}).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(EdgeListTextTest, RoundTrip) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("edges_roundtrip.txt");
  ASSERT_TRUE(WriteEdgeListText(g, path).ok());
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, g);
}

TEST(EdgeListTextTest, CommentsAndBlankLinesIgnored) {
  const std::string path = TempPath("edges_comments.txt");
  std::ofstream(path) << "# header\n\n0 1\n  # indented comment\n1 0\n";
  auto g = ReadEdgeListText(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->num_nodes(), 2u);
}

TEST(EdgeListTextTest, ExplicitNodeCountAllowsTrailingIsolated) {
  const std::string path = TempPath("edges_isolated.txt");
  std::ofstream(path) << "0 1\n";
  auto g = ReadEdgeListText(path, 10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 10u);
  EXPECT_EQ(g->CountIsolated(), 8u);
}

TEST(EdgeListTextTest, MalformedLineIsCorruption) {
  const std::string path = TempPath("edges_bad.txt");
  std::ofstream(path) << "0 1 2\n";
  EXPECT_EQ(ReadEdgeListText(path).status().code(), StatusCode::kCorruption);
}

TEST(EdgeListTextTest, NonNumericIdIsCorruption) {
  const std::string path = TempPath("edges_nonnum.txt");
  std::ofstream(path) << "a b\n";
  EXPECT_EQ(ReadEdgeListText(path).status().code(), StatusCode::kCorruption);
}

TEST(EdgeListTextTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadEdgeListText("/no/such/file.txt").status().code(),
            StatusCode::kIoError);
}

TEST(EdgeListTextTest, EmptyFileGivesEmptyGraph) {
  const std::string path = TempPath("edges_empty.txt");
  std::ofstream(path) << "";
  auto g = ReadEdgeListText(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0u);
}

// The binary snapshot is ENG2 under any name: dataset directories keep
// the ".eng" file name, so these cases save and map through it.
TEST(BinarySnapshotTest, RoundTrip) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("snapshot.eng");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  auto loaded = MapBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, g);
}

TEST(BinarySnapshotTest, RoundTripLargerRandomGraph) {
  util::Rng rng(99);
  auto g = gen::ErdosRenyi(500, 3000, &rng);
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("snapshot_big.eng");
  ASSERT_TRUE(SaveBinaryV2(*g, path).ok());
  auto loaded = MapBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, *g);
}

TEST(BinarySnapshotTest, EmptyGraphRoundTrip) {
  DiGraph g;
  const std::string path = TempPath("snapshot_empty.eng");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  auto loaded = MapBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 0u);
}

TEST(BinarySnapshotTest, DetectsBitFlipCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("snapshot_flip.eng");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  // Flip the last byte of the file: the tail of the in_targets section.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    const std::streamoff last = f.tellg();
    char c;
    f.get(c);
    f.seekp(last);
    f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(BinarySnapshotTest, BadMagicRejected) {
  const std::string path = TempPath("snapshot_magic.eng");
  std::ofstream(path, std::ios::binary) << "NOPE some bytes here";
  const Status s = MapBinary(path).status();
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(BinarySnapshotTest, TruncatedFileRejected) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("snapshot_trunc.eng");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  // Rewrite keeping only the first 20 bytes.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::ofstream(path, std::ios::binary) << contents.substr(0, 20);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
