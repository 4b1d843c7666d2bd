// ENG2 zero-copy snapshot tests: the save/map round trip, the borrowed-
// storage semantics of the mapped graph (copies and transposes share the
// mapping, the mapping outlives the loading scope), and the corruption
// matrix — every kind of damage must surface as a clean Status, never a
// crash or a half-valid graph, because MapBinary is the serving layer's
// startup path.

#include "graph/io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

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

void FlipByte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  char c;
  f.seekg(offset);
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x01));
}

// An empty graph in the retired ENG1 format: magic, version 1,
// reserved, n = 0, m = 0, checksum, then two one-entry offset arrays.
void WriteEng1EmptyGraph(const std::string& path) {
  std::string bytes = "ENG1";
  const uint32_t version = 1, reserved = 0;
  const uint64_t zero = 0;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&reserved), 4);
  for (int i = 0; i < 5; ++i) {
    bytes.append(reinterpret_cast<const char*>(&zero), 8);
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

void Truncate(const std::string& path, size_t keep_bytes) {
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(contents.size(), keep_bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << contents.substr(0, keep_bytes);
}

TEST(SnapshotV2Test, RoundTrip) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_roundtrip.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(*mapped, g);
  EXPECT_TRUE(mapped->borrows_storage());
  EXPECT_FALSE(g.borrows_storage());
  EXPECT_EQ(GraphChecksum(*mapped), GraphChecksum(g));
}

TEST(SnapshotV2Test, RoundTripLargerRandomGraph) {
  util::Rng rng(99);
  auto g = gen::ErdosRenyi(500, 3000, &rng);
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("v2_big.eng2");
  ASSERT_TRUE(SaveBinaryV2(*g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(*mapped, *g);
}

TEST(SnapshotV2Test, EmptyGraphRoundTrip) {
  DiGraph g;
  const std::string path = TempPath("v2_empty.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_nodes(), 0u);
  EXPECT_EQ(mapped->num_edges(), 0u);
}

TEST(SnapshotV2Test, CopiesAndTransposeShareTheMapping) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_share.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());

  // The original mapped graph goes out of scope; the copy must keep the
  // mapping alive and stay fully readable.
  DiGraph copy;
  {
    auto mapped = MapBinary(path);
    ASSERT_TRUE(mapped.ok());
    copy = *mapped;
  }
  EXPECT_EQ(copy, g);
  EXPECT_TRUE(copy.borrows_storage());

  const DiGraph t = copy.Transpose();
  EXPECT_TRUE(t.borrows_storage());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  EXPECT_TRUE(t.HasEdge(1, 0));  // g has 0 -> 1
  EXPECT_EQ(t.Transpose(), g);
}

TEST(SnapshotV2Test, MovedFromGraphIsEmptyAndValid) {
  const std::string path = TempPath("v2_move.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  DiGraph stolen = std::move(*mapped);
  EXPECT_EQ(stolen, SmallGraph());
  EXPECT_EQ(mapped->num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(mapped->borrows_storage());
}

TEST(SnapshotV2Test, ZeroLengthFileIsCorruption) {
  const std::string path = TempPath("v2_zero.eng2");
  std::ofstream(path, std::ios::binary | std::ios::trunc).flush();
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, MissingFileIsIoError) {
  EXPECT_EQ(MapBinary("/no/such/file.eng2").status().code(),
            StatusCode::kIoError);
}

TEST(SnapshotV2Test, BadMagicIsCorruption) {
  const std::string path = TempPath("v2_magic.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  FlipByte(path, 0);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, VersionSkewIsNotSupported) {
  const std::string path = TempPath("v2_version.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  FlipByte(path, 4);  // u32 version field follows the magic
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kNotSupported);
}

TEST(SnapshotV2Test, Eng1FileIsNotSupported) {
  const std::string path = TempPath("v2_eng1.eng2");
  WriteEng1EmptyGraph(path);
  const Status s = MapBinary(path).status();
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
  // The message says how to get a readable file.
  EXPECT_NE(s.ToString().find("elitenet_cli convert"), std::string::npos)
      << s.ToString();
}

TEST(SnapshotV2Test, TruncationAnywhereIsCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_trunc.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  size_t full_size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    full_size = static_cast<size_t>(in.tellg());
  }
  // Mid-header, mid-table, and mid-payload cuts.
  for (size_t keep : {size_t{3}, size_t{63}, size_t{100}, full_size - 1}) {
    ASSERT_TRUE(SaveBinaryV2(g, path).ok());
    Truncate(path, keep);
    EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption)
        << "kept " << keep << " of " << full_size;
  }
}

TEST(SnapshotV2Test, PayloadBitFlipIsCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_flip.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  // First byte of the first section (header 64 + table 4*32 = 192).
  FlipByte(path, 192);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, SectionTableBitFlipIsCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_table.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  FlipByte(path, 64 + 8);  // first section entry's offset field
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, MagicClassifiesEveryFormat) {
  const DiGraph g = SmallGraph();
  const std::string v1 = TempPath("classify.eng");
  const std::string v2 = TempPath("classify.eng2");
  const std::string txt = TempPath("classify.txt");
  WriteEng1EmptyGraph(v1);
  ASSERT_TRUE(SaveBinaryV2(g, v2).ok());
  ASSERT_TRUE(WriteEdgeListText(g, txt).ok());

  EXPECT_EQ(MapBinary(v1).status().code(), StatusCode::kNotSupported);
  auto mapped = MapBinary(v2);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(*mapped, g);
  EXPECT_EQ(MapBinary(txt).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(MapBinary("/no/such/file").status().code(), StatusCode::kIoError);
}

TEST(SnapshotV2Test, MagicDecidesNotExtension) {
  const DiGraph g = SmallGraph();
  // Deliberately swapped extensions: the magic decides.
  const std::string v1_as_eng2 = TempPath("swap.eng2");
  const std::string v2_as_eng = TempPath("swap.eng");
  WriteEng1EmptyGraph(v1_as_eng2);
  ASSERT_TRUE(SaveBinaryV2(g, v2_as_eng).ok());

  EXPECT_EQ(MapBinary(v1_as_eng2).status().code(), StatusCode::kNotSupported);

  auto b = MapBinary(v2_as_eng);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(*b, g);
  EXPECT_TRUE(b->borrows_storage());  // ENG2 maps in place

  const std::string txt = TempPath("swap.txt");
  ASSERT_TRUE(WriteEdgeListText(g, txt).ok());
  EXPECT_EQ(MapBinary(txt).status().code(), StatusCode::kCorruption);
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(SnapshotV2Test, RewriteOverOwnMappingKeepsGraph) {
  // Saving a mapped graph over the file it is mapped from must not
  // truncate the pages under the mapping: the writer goes through a temp
  // file and a rename, so the old mapping stays intact and the new file
  // maps back to the same graph.
  util::Rng rng(7);
  auto g = gen::ErdosRenyi(300, 2000, &rng);
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("v2_inplace.eng2");
  ASSERT_TRUE(SaveBinaryV2(*g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ASSERT_TRUE(SaveBinaryV2(*mapped, path).ok());
  EXPECT_EQ(*mapped, *g);  // the old mapping still reads the old bytes
  auto remapped = MapBinary(path);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(*remapped, *g);
  EXPECT_FALSE(FileExists(path + ".tmp"));

  // The streamed writer takes the same route.
  ASSERT_TRUE(SaveStreamedV2(*remapped, path).ok());
  EXPECT_EQ(*remapped, *g);
  auto streamed = MapBinary(path);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(*streamed, *g);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(SnapshotV2Test, FailedWriteLeavesTargetUntouched) {
  // A write that cannot finish (here: the temp file cannot be created)
  // reports the error and leaves the existing snapshot as it was.
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_blocked.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  const std::string blocker = path + ".tmp";
  std::remove(blocker.c_str());
  ASSERT_EQ(::mkdir(blocker.c_str(), 0755), 0);  // fopen(tmp) now fails
  util::Rng rng(3);
  auto other = gen::ErdosRenyi(50, 200, &rng);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(SaveBinaryV2(*other, path).code(), StatusCode::kIoError);
  EXPECT_FALSE(SaveStreamedV2(*other, path).ok());
  ::rmdir(blocker.c_str());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(*mapped, g);
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
