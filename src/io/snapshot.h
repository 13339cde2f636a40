#ifndef VREC_IO_SNAPSHOT_H_
#define VREC_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "social/descriptor.h"
#include "util/status.h"

namespace vrec::io {

/// Engine snapshot file format (see docs/persistence.md).
///
/// A snapshot is one file:
///
///   [48-byte file header][section frame]...[section frame]
///
/// File header (all little-endian):
///   u32 magic            "VSNP"
///   u32 version          kSnapshotVersion (exact-match)
///   u32 flags            bit 0: flat sections are little-endian raw arrays
///   u32 section_count
///   u64 total_file_bytes (the whole file, header included)
///   u64 options_fingerprint  FNV-1a over the serialized options payload
///   u32 shard_index      fleet coordinates (0 / 1 / 0 for single-box)
///   u32 shard_count
///   u32 global_digest    FNV-1a over the fleet's global descriptor set
///   u32 header_checksum  FNV-1a over the 44 preceding header bytes
///
/// Section frame:
///   u32 section_id
///   u32 pad_bytes        zeros between this header and the payload
///   u64 payload_bytes
///   u32 payload_checksum SnapshotChecksum over the payload bytes
///   u32 reserved         0
///   [pad_bytes zero bytes][payload]
///
/// Sections appear in ascending id order. The flat-pool payloads (raw
/// double / int32 arrays) are padded so they start at a file offset that is
/// a multiple of kSnapshotAlignment; a mmap-backed load adopts them in
/// place with no copy or decode.
inline constexpr uint32_t kSnapshotMagic = 0x504E5356;  // "VSNP" (LE bytes)
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kSnapshotFlagLeFlats = 1u << 0;
inline constexpr size_t kSnapshotAlignment = 64;
inline constexpr size_t kSnapshotHeaderBytes = 48;
inline constexpr size_t kSnapshotFrameBytes = 24;

/// Section ids, in file order.
enum SnapshotSection : uint32_t {
  kSectionOptions = 1,
  kSectionEngine = 2,       // counters + per-record state
  kSectionDictionary = 3,
  kSectionMaintainer = 4,
  kSectionInvertedFile = 5,
  kSectionLsbForest = 6,
  kSectionPreparedMeta = 7,
  kSectionPreparedValues = 8,   // aligned raw double[]
  kSectionPreparedWeights = 9,  // aligned raw double[]
  kSectionPreparedCdf = 10,     // aligned raw double[]
  kSectionPreparedMeans = 11,   // aligned raw double[]
  kSectionHistogramMeta = 12,
  kSectionHistogramBins = 13,     // aligned raw int32[]
  kSectionHistogramWeights = 14,  // aligned raw double[]
};
inline constexpr uint32_t kSnapshotSectionCount = 14;

/// One section's location inside a snapshot file (InspectSnapshot); the
/// robustness suite uses these boundaries to truncate / corrupt at every
/// structurally interesting offset.
struct SnapshotSectionInfo {
  uint32_t id = 0;
  uint64_t frame_offset = 0;    // of the 24-byte frame header
  uint64_t payload_offset = 0;  // frame + frame header + padding
  uint64_t payload_bytes = 0;
  uint32_t payload_checksum = 0;
};

/// Parsed snapshot header + section table (no payload decoding).
struct SnapshotInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t file_bytes = 0;
  uint64_t options_fingerprint = 0;
  core::SnapshotFleetInfo fleet;
  std::vector<SnapshotSectionInfo> sections;
};

/// Reads and validates a snapshot's header and section table (bounds and
/// header checksum; payload checksums are NOT verified — that is the
/// loader's job). Clean Status errors on any malformed input.
[[nodiscard]]
StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Section payload checksum: XXH64 (seed 0) folded to 32 bits. Chosen over
/// FNV-1a because section payloads run to megabytes and FNV's byte-serial
/// dependency chain caps verification at ~1 GB/s, which would dominate the
/// cold-start restore this file exists to make fast. The tiny fixed-size
/// header keeps FNV-1a (see header_checksum above).
uint32_t SnapshotChecksum(const void* data, size_t bytes);

/// FNV-1a digest of a descriptor set, order-sensitive: the fleet-wide
/// fingerprint pinned into every shard's snapshot header so mixed or
/// re-partitioned snapshot sets are rejected at load.
uint32_t DigestDescriptors(
    const std::vector<social::SocialDescriptor>& descriptors);

}  // namespace vrec::io

#endif  // VREC_IO_SNAPSHOT_H_
