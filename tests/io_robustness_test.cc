// Robustness: malformed and adversarial inputs to every file-reading
// path must produce a clean Status (IoError/Corruption), never a crash
// or an out-of-range read. Deterministic pseudo-fuzz over random byte
// files plus targeted structural corruptions.

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(IoRobustnessTest, RandomBytesAsBinarySnapshot) {
  util::Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t len = 1 + rng.UniformU64(512);
    std::string bytes;
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    const std::string path = TempPath("fuzz_snapshot.bin");
    WriteBytes(path, bytes);
    const auto result = MapBinary(path);
    EXPECT_FALSE(result.ok()) << "trial " << trial;
  }
}

TEST(IoRobustnessTest, RandomBytesWithValidMagic) {
  // Valid magic + garbage body: deeper validation layers must catch it.
  util::Rng rng(43);
  for (int trial = 0; trial < 30; ++trial) {
    std::string bytes = "ENG2";
    const size_t len = rng.UniformU64(512);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    const std::string path = TempPath("fuzz_magic.bin");
    WriteBytes(path, bytes);
    EXPECT_FALSE(MapBinary(path).ok()) << "trial " << trial;
  }
}

TEST(IoRobustnessTest, EveryByteFlipIsDetected) {
  // Build a small snapshot and flip each byte one at a time. A flip in a
  // byte the reader consults must fail cleanly; a flip in one it never
  // reads (header padding, a section entry's reserved word, alignment
  // gaps) must decode to the identical graph — never a crash, never a
  // silently different graph. (Header-field flips can produce huge
  // claimed counts; size validation must reject them.)
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdges({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("flip_base.eng2");
  ASSERT_TRUE(SaveBinaryV2(*g, path).ok());
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  // ENG2 layout (graph/io.h): a 64-byte header whose first 36 bytes are
  // fields, then four 32-byte section entries {id, reserved, offset,
  // length, checksum}, then the section payloads.
  std::vector<bool> consulted(original.size(), false);
  for (size_t i = 0; i < 36; ++i) consulted[i] = true;
  for (size_t s = 0; s < 4; ++s) {
    const size_t entry = 64 + 32 * s;
    for (size_t i = 0; i < 32; ++i) consulted[entry + i] = i < 4 || i >= 8;
    uint64_t offset = 0, length = 0;
    std::memcpy(&offset, original.data() + entry + 8, 8);
    std::memcpy(&length, original.data() + entry + 16, 8);
    ASSERT_LE(offset + length, original.size());
    for (uint64_t i = offset; i < offset + length; ++i) consulted[i] = true;
  }
  size_t num_consulted = 0;
  for (bool c : consulted) num_consulted += c ? 1 : 0;
  int detected = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    std::string mutated = original;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    const std::string mpath = TempPath("flip_mut.eng2");
    WriteBytes(mpath, mutated);
    const auto result = MapBinary(mpath);
    if (!result.ok()) {
      ++detected;
      EXPECT_TRUE(consulted[i]) << "padding flip rejected at byte " << i;
    } else {
      EXPECT_FALSE(consulted[i]) << "undetected flip at byte " << i;
      EXPECT_EQ(*result, *g) << "undetected corruption at byte " << i;
    }
  }
  EXPECT_EQ(detected, static_cast<int>(num_consulted));
}

TEST(IoRobustnessTest, HugeClaimedCountsRejectedWithoutAllocation) {
  // Headers claiming 2^62 nodes, or 2^62 edges (whose byte length wraps
  // to zero in 64 bits), must fail fast rather than map a span that
  // size.
  const auto header = [](uint64_t n, uint64_t m) {
    std::string bytes = "ENG2";
    const uint32_t version = 2, section_count = 4;
    const uint64_t checksum = 0;
    bytes.append(reinterpret_cast<const char*>(&version), 4);
    bytes.append(reinterpret_cast<const char*>(&n), 8);
    bytes.append(reinterpret_cast<const char*>(&m), 8);
    bytes.append(reinterpret_cast<const char*>(&checksum), 8);
    bytes.append(reinterpret_cast<const char*>(&section_count), 4);
    bytes.resize(64 + 4 * 32, '\0');
    return bytes;
  };
  const std::string path = TempPath("huge_header.eng2");
  WriteBytes(path, header(uint64_t{1} << 62, 0));
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);

  // An edgeless graph's target sections are empty, so 2^62 * 4 bytes
  // "matches" them; the edge count must be rejected on its own.
  ASSERT_TRUE(SaveBinaryV2(DiGraph(), path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const uint64_t huge_m = uint64_t{1} << 62;
  std::memcpy(bytes.data() + 16, &huge_m, 8);  // num_edges field
  WriteBytes(path, bytes);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(IoRobustnessTest, EdgeListWithPathologicalLines) {
  const std::string path = TempPath("fuzz_edges.txt");
  for (const char* contents :
       {"0 1\n2 18446744073709551616\n",         // id overflow
        "0 1\n1 -3\n",                           // negative
        "4294967296 0\n",                        // above uint32
        "0 1\n0x10 2\n",                         // hex not accepted
        "0 1 # trailing comment\n",              // junk after fields
        "\x01\x02\x03 binary\n"}) {              // binary noise
    std::ofstream(path) << contents;
    EXPECT_FALSE(ReadEdgeListText(path).ok()) << contents;
  }
}

TEST(IoRobustnessTest, EdgeListVeryLongLine) {
  const std::string path = TempPath("fuzz_longline.txt");
  std::ofstream(path) << std::string(100000, '7') << " 1\n";
  // Either parses as an overflow error or corruption — must not crash.
  EXPECT_FALSE(ReadEdgeListText(path).ok());
}

TEST(IoRobustnessTest, NodeCountSmallerThanIdsRejected) {
  const std::string path = TempPath("fuzz_node_count.txt");
  std::ofstream(path) << "0 9\n";
  EXPECT_FALSE(ReadEdgeListText(path, 5).ok());
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
