// Corrupt-snapshot coverage: every malformed input — truncation at every
// section boundary, bit flips anywhere in header / payload / checksum,
// forged section counts and lengths, wrong magic, future versions, random
// kill-point truncation — must come back as a clean Status error, never
// UB, a crash, or a partially-initialized engine. Also locks the
// kill-resilience contract of SaveSnapshot's tmp-file + atomic-rename
// publish: a crashed save never clobbers the previous good snapshot.
// Runs in CI via ctest -R Snapshot.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/recommender.h"
#include "io/binary_format.h"
#include "io/snapshot.h"
#include "util/random.h"

namespace vrec::io {
namespace {

using core::Recommender;
using core::RecommenderOptions;
using core::SnapshotLoadOptions;
using core::SocialMode;
using signature::SignatureSeries;
using social::SocialDescriptor;

constexpr int kVideos = 24;
constexpr int kUsers = 20;

std::unique_ptr<Recommender> BuildCorpus() {
  RecommenderOptions options;
  options.social_mode = SocialMode::kSarHash;
  options.k_subcommunities = 4;
  options.max_candidates = 16;
  options.num_threads = 1;
  auto rec = std::make_unique<Recommender>(options);
  Rng rng(20150531);
  for (int v = 0; v < kVideos; ++v) {
    SignatureSeries s;
    for (int i = 0; i < 3; ++i) {
      s.push_back({{40.0 * (v % 4) - 60.0 + rng.Uniform(-3.0, 3.0), 1.0}});
    }
    std::vector<social::UserId> users;
    for (int i = 0; i < 5; ++i) {
      users.push_back(rng.UniformInt(0, kUsers - 1));
    }
    EXPECT_TRUE(
        rec->AddVideoRecord(v, std::move(s), SocialDescriptor(users)).ok());
  }
  EXPECT_TRUE(rec->Finalize(kUsers).ok());
  return rec;
}

std::string TempPath(const std::string& name) {
  // ctest runs each discovered test as its own process against the same
  // TempDir, so the pid keeps concurrently-running tests off each other's
  // snapshot files (every fixture SetUp re-saves the same logical name).
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "." +
         name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Loading `bytes` through both paths (mapped file and in-memory buffer)
/// must fail with a clean error, and the two paths must agree.
void ExpectCleanLoadFailure(const std::vector<uint8_t>& bytes,
                            const std::string& label) {
  const auto via_buffer =
      Recommender::LoadSnapshotFromBuffer(bytes.data(), bytes.size());
  EXPECT_FALSE(via_buffer.ok()) << label << ": buffer load accepted";

  const std::string path = TempPath("corrupt_probe.vsnp");
  WriteAll(path, bytes);
  for (const bool mmap : {true, false}) {
    SnapshotLoadOptions load;
    load.use_mmap = mmap;
    const auto via_file = Recommender::LoadSnapshot(path, load);
    EXPECT_FALSE(via_file.ok())
        << label << ": file load (mmap=" << mmap << ") accepted";
  }
  std::remove(path.c_str());
}

class SnapshotRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = BuildCorpus();
    path_ = TempPath("robustness.vsnp");
    ASSERT_TRUE(engine_->SaveSnapshot(path_).ok());
    good_ = ReadAll(path_);
    const auto info = InspectSnapshot(path_);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    layout_ = *info;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<Recommender> engine_;
  std::string path_;
  std::vector<uint8_t> good_;
  SnapshotInfo layout_;
};

TEST_F(SnapshotRobustnessTest, GoodSnapshotLoads) {
  const auto loaded =
      Recommender::LoadSnapshotFromBuffer(good_.data(), good_.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(SnapshotRobustnessTest, TruncationAtEverySectionBoundaryFailsCleanly) {
  // Every structurally interesting prefix: empty, partial header, then for
  // each section — up to its frame, inside its frame, at its payload
  // start, mid-payload, and one byte short of its end.
  std::vector<size_t> cuts = {0, 1, kSnapshotHeaderBytes / 2,
                              kSnapshotHeaderBytes - 1, kSnapshotHeaderBytes};
  for (const auto& s : layout_.sections) {
    cuts.push_back(s.frame_offset);
    cuts.push_back(s.frame_offset + kSnapshotFrameBytes / 2);
    cuts.push_back(s.payload_offset);
    if (s.payload_bytes > 1) {
      cuts.push_back(s.payload_offset + s.payload_bytes / 2);
      cuts.push_back(s.payload_offset + s.payload_bytes - 1);
    }
  }
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, good_.size());
    ExpectCleanLoadFailure(
        std::vector<uint8_t>(good_.begin(),
                             good_.begin() + static_cast<ptrdiff_t>(cut)),
        "truncate@" + std::to_string(cut));
  }
}

TEST_F(SnapshotRobustnessTest, HeaderBitFlipsFailCleanly) {
  // Any single-bit flip in the 48-byte header breaks the header checksum
  // (or, for the checksum field itself, the comparison) — all rejected.
  for (size_t byte = 0; byte < kSnapshotHeaderBytes; ++byte) {
    std::vector<uint8_t> bad = good_;
    bad[byte] ^= 0x10;
    ExpectCleanLoadFailure(bad, "header-flip@" + std::to_string(byte));
  }
}

TEST_F(SnapshotRobustnessTest, PayloadBitFlipsFailCleanly) {
  // One flip inside every section's payload: the per-section checksum must
  // catch each, including flips deep inside the aligned flat arrays.
  for (const auto& s : layout_.sections) {
    if (s.payload_bytes == 0) continue;
    for (const uint64_t at :
         {uint64_t{0}, s.payload_bytes / 2, s.payload_bytes - 1}) {
      std::vector<uint8_t> bad = good_;
      bad[s.payload_offset + at] ^= 0x01;
      ExpectCleanLoadFailure(bad, "payload-flip section " +
                                      std::to_string(s.id) + " @" +
                                      std::to_string(at));
    }
  }
}

TEST_F(SnapshotRobustnessTest, FrameChecksumFlipsFailCleanly) {
  // Flipping a stored section checksum (frame bytes 16..19) must fail the
  // payload verification even though the payload itself is intact.
  for (const auto& s : layout_.sections) {
    std::vector<uint8_t> bad = good_;
    bad[s.frame_offset + 16] ^= 0x01;
    ExpectCleanLoadFailure(bad, "checksum-flip section " +
                                    std::to_string(s.id));
  }
}

TEST_F(SnapshotRobustnessTest, WrongMagicAndFutureVersionFailCleanly) {
  {
    std::vector<uint8_t> bad = good_;
    bad[0] = 'X';  // magic
    ExpectCleanLoadFailure(bad, "wrong-magic");
  }
  {
    std::vector<uint8_t> bad = good_;
    bad[4] = static_cast<uint8_t>(kSnapshotVersion + 1);  // future version
    // Re-seal the header checksum so only the version check can reject it.
    const uint32_t checksum = Fnv1a32(bad.data(), 44);
    for (int i = 0; i < 4; ++i) {
      bad[44 + i] = static_cast<uint8_t>((checksum >> (8 * i)) & 0xFF);
    }
    const auto result =
        Recommender::LoadSnapshotFromBuffer(bad.data(), bad.size());
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("version"), std::string::npos);
  }
}

TEST_F(SnapshotRobustnessTest, VersionOneFilesAreRejectedByVersion) {
  // A file in the previous format version must be refused by its version
  // number, with a message naming both versions, before any section is
  // read.
  std::vector<uint8_t> v1 = good_;
  v1[4] = 1;
  v1[5] = v1[6] = v1[7] = 0;
  const uint32_t checksum = Fnv1a32(v1.data(), 44);
  for (int i = 0; i < 4; ++i) {
    v1[44 + i] = static_cast<uint8_t>((checksum >> (8 * i)) & 0xFF);
  }
  const std::string expected =
      "unsupported snapshot version 1 (this build reads version " +
      std::to_string(kSnapshotVersion) + ")";
  const auto via_buffer =
      Recommender::LoadSnapshotFromBuffer(v1.data(), v1.size());
  ASSERT_FALSE(via_buffer.ok());
  EXPECT_EQ(via_buffer.status().message(), expected);
  const std::string path = TempPath("version1.vsnp");
  WriteAll(path, v1);
  const auto via_file = Recommender::LoadSnapshot(path);
  ASSERT_FALSE(via_file.ok());
  EXPECT_EQ(via_file.status().message(), expected);
  const auto info = InspectSnapshot(path);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().message(), expected);
  std::remove(path.c_str());
}

TEST_F(SnapshotRobustnessTest, ForgedSectionLengthsFailCleanly) {
  // Inflate / deflate a section's declared payload length (and re-seal
  // nothing else): the byte-budget and exact-end checks must catch every
  // variant before any allocation happens.
  for (const auto& s : layout_.sections) {
    for (const uint64_t forged :
         {s.payload_bytes + 1, s.payload_bytes == 0 ? uint64_t{7}
                                                    : s.payload_bytes - 1,
          uint64_t{1} << 60}) {
      std::vector<uint8_t> bad = good_;
      for (int i = 0; i < 8; ++i) {
        bad[s.frame_offset + 8 + i] =
            static_cast<uint8_t>((forged >> (8 * i)) & 0xFF);
      }
      ExpectCleanLoadFailure(bad, "forged-length section " +
                                      std::to_string(s.id) + " -> " +
                                      std::to_string(forged));
    }
  }
}

TEST_F(SnapshotRobustnessTest, ForgedInteriorCountsFailCleanly) {
  // Forge the record count inside the engine section (first field after
  // user_count and generation) to a huge value and re-seal the section
  // checksum: the in-payload byte-budget guard must reject it instead of
  // attempting a multi-GB reserve.
  const auto& engine = layout_.sections[kSectionEngine - 1];
  std::vector<uint8_t> bad = good_;
  const uint64_t huge = uint64_t{1} << 56;
  for (int i = 0; i < 8; ++i) {
    bad[engine.payload_offset + 16 + i] =
        static_cast<uint8_t>((huge >> (8 * i)) & 0xFF);
  }
  const uint32_t checksum = SnapshotChecksum(
      bad.data() + engine.payload_offset, engine.payload_bytes);
  for (int i = 0; i < 4; ++i) {
    bad[engine.frame_offset + 16 + i] =
        static_cast<uint8_t>((checksum >> (8 * i)) & 0xFF);
  }
  ExpectCleanLoadFailure(bad, "forged-record-count");
}

TEST_F(SnapshotRobustnessTest, TrailingBytesFailCleanly) {
  std::vector<uint8_t> bad = good_;
  bad.push_back(0);
  ExpectCleanLoadFailure(bad, "trailing-byte");
}

TEST_F(SnapshotRobustnessTest, RandomKillPointTruncationFailsCleanly) {
  // Kill-resilience: a crash can truncate a file at ANY byte. 64 random
  // kill points (plus both ends) must all load-fail cleanly.
  Rng rng(0xDEAD);
  for (int trial = 0; trial < 64; ++trial) {
    const auto cut = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(good_.size()) - 1));
    ExpectCleanLoadFailure(
        std::vector<uint8_t>(good_.begin(),
                             good_.begin() + static_cast<ptrdiff_t>(cut)),
        "kill@" + std::to_string(cut));
  }
}

TEST_F(SnapshotRobustnessTest, RandomGarbageNeverCrashesLoader) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 128; ++trial) {
    const auto len = static_cast<size_t>(rng.UniformInt(0, 512));
    std::vector<uint8_t> garbage(len);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    const auto result =
        Recommender::LoadSnapshotFromBuffer(garbage.data(), garbage.size());
    EXPECT_FALSE(result.ok());
  }
}

TEST_F(SnapshotRobustnessTest, CrashedSaveNeverClobbersPreviousSnapshot) {
  // Simulate the crash window: a stale .tmp (a save that died mid-write)
  // must not affect the good file, and the next successful save must
  // atomically replace both.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream half(tmp, std::ios::binary | std::ios::trunc);
    half.write("VSNP-partial-garbage", 20);
  }
  // The published file is untouched by the dead writer's leftovers.
  const auto loaded = Recommender::LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // A fresh save over the same path replaces the snapshot atomically and
  // the stale tmp does not survive as the published artifact.
  ASSERT_TRUE(engine_->SaveSnapshot(path_).ok());
  const auto reloaded = Recommender::LoadSnapshot(path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(ReadAll(path_).size(), good_.size());
  std::remove(tmp.c_str());
}

TEST_F(SnapshotRobustnessTest, SaveIntoUnwritableDirectoryFailsCleanly) {
  const Status s =
      engine_->SaveSnapshot("/nonexistent-vrec-dir/deep/snapshot.vsnp");
  EXPECT_FALSE(s.ok());
  // The original engine is unharmed and still serves.
  EXPECT_TRUE(engine_->RecommendById(0, 5).ok());
}

TEST_F(SnapshotRobustnessTest, InspectRejectsMalformedFilesCleanly) {
  // InspectSnapshot shares the layout parser; spot-check it rejects the
  // same classes of damage without payload access.
  const std::string bad_path = TempPath("inspect_bad.vsnp");
  {
    std::vector<uint8_t> bad = good_;
    bad[8] ^= 0x04;  // flags, breaks the header checksum
    WriteAll(bad_path, bad);
    EXPECT_FALSE(InspectSnapshot(bad_path).ok());
  }
  {
    WriteAll(bad_path, std::vector<uint8_t>(good_.begin(), good_.begin() + 12));
    EXPECT_FALSE(InspectSnapshot(bad_path).ok());
  }
  {
    // Payload damage is the loader's business: Inspect reads only the
    // header and the frame table, so a corrupted payload stays inspectable.
    std::vector<uint8_t> bad = good_;
    const SnapshotSectionInfo& s = layout_.sections[kSectionEngine - 1];
    bad[s.payload_offset] ^= 0x01;
    WriteAll(bad_path, bad);
    const auto info = InspectSnapshot(bad_path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->sections.size(), layout_.sections.size());
  }
  const auto missing = InspectSnapshot(TempPath("no_such_file.vsnp"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace vrec::io
