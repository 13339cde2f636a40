#include "io/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "index/bplus_tree.h"
#include "index/lsb_index.h"
#include "io/binary_format.h"
#include "io/mapped_file.h"
#include "signature/prepared_pool.h"
#include "signature/prepared_signature.h"
#include "social/histogram_pool.h"
#include "social/sar.h"
#include "social/update_maintainer.h"

// The snapshot format (layout documented in io/snapshot.h and
// docs/persistence.md). The save/load entry points are members of
// core::Recommender — declared in core/recommender.h, defined here so the
// whole (de)serialization surface lives in src/io and the engine header
// stays free of format details.

namespace vrec::io {
namespace {

// ---------------------------------------------------------------------------
// Raw little-endian helpers over byte buffers (the file header and section
// frames are fixed-layout; everything else goes through BinaryReader /
// BinaryWriter over an in-place stream).

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}

uint32_t ReadU32At(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64At(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
  return v;
}

/// Read-only streambuf over an in-memory byte range: lets BinaryReader
/// parse a mapped section without copying it into a string first.
/// consumed() reports how many bytes the reader actually took, so a
/// section with forged counts that underruns its byte budget is detected.
class MemBuf : public std::streambuf {
 public:
  MemBuf(const uint8_t* base, size_t size) {
    char* p = const_cast<char*>(reinterpret_cast<const char*>(base));
    setg(p, p, p + size);
  }
  size_t consumed() const { return size_t(gptr() - eback()); }
};

bool IsAlignedSection(uint32_t id) {
  switch (id) {
    case kSectionPreparedValues:
    case kSectionPreparedWeights:
    case kSectionPreparedCdf:
    case kSectionPreparedMeans:
    case kSectionHistogramBins:
    case kSectionHistogramWeights:
      return true;
    default:
      return false;
  }
}

/// Header + section-table parse shared by InspectSnapshot and the loader.
/// Validates structure and bounds only; payload checksums are left to the
/// loader (Inspect must stay usable on deliberately corrupted payloads).
StatusOr<SnapshotInfo> ParseSnapshotLayout(const uint8_t* data, size_t size) {
  if (size < kSnapshotHeaderBytes) {
    return Status::InvalidArgument("snapshot truncated: no file header");
  }
  SnapshotInfo info;
  const uint32_t magic = ReadU32At(data);
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a snapshot file (bad magic)");
  }
  info.version = ReadU32At(data + 4);
  if (info.version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(info.version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  const uint32_t stored_checksum = ReadU32At(data + 44);
  if (Fnv1a32(data, 44) != stored_checksum) {
    return Status::InvalidArgument("snapshot header checksum mismatch");
  }
  info.flags = ReadU32At(data + 8);
  if ((info.flags & kSnapshotFlagLeFlats) == 0) {
    return Status::InvalidArgument(
        "snapshot flat sections are not little-endian");
  }
  const uint32_t section_count = ReadU32At(data + 12);
  if (section_count != kSnapshotSectionCount) {
    return Status::InvalidArgument(
        "snapshot section count " + std::to_string(section_count) +
        " does not match format version (" +
        std::to_string(kSnapshotSectionCount) + ")");
  }
  info.file_bytes = ReadU64At(data + 16);
  if (info.file_bytes != size) {
    return Status::InvalidArgument(
        "snapshot header declares " + std::to_string(info.file_bytes) +
        " bytes but the file holds " + std::to_string(size));
  }
  info.options_fingerprint = ReadU64At(data + 24);
  info.fleet.shard_index = ReadU32At(data + 32);
  info.fleet.shard_count = ReadU32At(data + 36);
  info.fleet.global_digest = ReadU32At(data + 40);
  if (info.fleet.shard_count == 0 ||
      info.fleet.shard_index >= info.fleet.shard_count) {
    return Status::InvalidArgument("snapshot fleet coordinates invalid");
  }

  uint64_t offset = kSnapshotHeaderBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    if (size - offset < kSnapshotFrameBytes) {
      return Status::InvalidArgument(
          "snapshot truncated inside section frame " + std::to_string(i + 1));
    }
    const uint8_t* frame = data + offset;
    SnapshotSectionInfo section;
    section.id = ReadU32At(frame);
    section.frame_offset = offset;
    if (section.id != i + 1) {
      return Status::InvalidArgument(
          "snapshot section " + std::to_string(i + 1) + " carries id " +
          std::to_string(section.id));
    }
    const uint32_t pad = ReadU32At(frame + 4);
    if (pad >= kSnapshotAlignment) {
      return Status::InvalidArgument("snapshot section padding oversized");
    }
    section.payload_bytes = ReadU64At(frame + 8);
    section.payload_checksum = ReadU32At(frame + 16);
    if (ReadU32At(frame + 20) != 0) {
      return Status::InvalidArgument(
          "snapshot section reserved field non-zero");
    }
    const uint64_t body_start = offset + kSnapshotFrameBytes + pad;
    if (body_start > size || section.payload_bytes > size - body_start) {
      return Status::InvalidArgument(
          "snapshot section " + std::to_string(section.id) +
          " overruns the file");
    }
    section.payload_offset = body_start;
    if (IsAlignedSection(section.id) &&
        section.payload_offset % kSnapshotAlignment != 0) {
      return Status::InvalidArgument(
          "snapshot flat section " + std::to_string(section.id) +
          " is misaligned");
    }
    info.sections.push_back(section);
    offset = body_start + section.payload_bytes;
  }
  if (offset != size) {
    return Status::InvalidArgument("snapshot carries trailing bytes");
  }
  return info;
}

}  // namespace

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  // Only the header and the frame table are read, so map rather than copy.
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  return ParseSnapshotLayout(mapped->data(), mapped->size());
}

namespace {

// XXH64 (Yann Collet's xxHash, 64-bit variant, seed 0), implemented from
// the public specification. Four independent accumulator lanes give the
// superscalar throughput FNV-1a's serial byte chain cannot; section
// payloads are the only megabyte-scale checksummed unit in the repo.

constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

uint64_t XxRead64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);  // std::byteswap is C++23; repo pins C++20
  }
  return v;
}

uint32_t XxRead32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxPrime1;
}

uint64_t XxMergeRound(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

uint64_t Xxh64(const uint8_t* p, size_t len, uint64_t seed) {
  const uint8_t* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    uint64_t v2 = seed + kXxPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxPrime1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = XxRound(v1, XxRead64(p));
      v2 = XxRound(v2, XxRead64(p + 8));
      v3 = XxRound(v3, XxRead64(p + 16));
      v4 = XxRound(v4, XxRead64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMergeRound(h, v1);
    h = XxMergeRound(h, v2);
    h = XxMergeRound(h, v3);
    h = XxMergeRound(h, v4);
  } else {
    h = seed + kXxPrime5;
  }
  h += uint64_t(len);
  while (p + 8 <= end) {
    h ^= XxRound(0, XxRead64(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= uint64_t(XxRead32(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= uint64_t(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

uint32_t SnapshotChecksum(const void* data, size_t bytes) {
  const uint64_t h = Xxh64(static_cast<const uint8_t*>(data), bytes, 0);
  return uint32_t(h ^ (h >> 32));
}

uint32_t DigestDescriptors(
    const std::vector<social::SocialDescriptor>& descriptors) {
  Fnv1a32Builder digest;
  digest.MixU64(descriptors.size());
  for (const social::SocialDescriptor& d : descriptors) {
    digest.MixU64(d.size());
    for (social::UserId u : d.users()) digest.MixU64(uint64_t(u));
  }
  return digest.digest();
}

}  // namespace vrec::io

// ===========================================================================
// core::Recommender snapshot entry points.

namespace vrec::core {
namespace {

using io::AppendU32;
using io::AppendU64;
using io::BinaryReader;
using io::BinaryWriter;
using io::MemBuf;

// Section payloads assemble into ostringstreams; a sticky-failure
// BinaryWriter wraps each.
struct SectionWriter {
  SectionWriter() : writer(&stream) {}
  std::ostringstream stream;
  BinaryWriter writer;
};

void WriteOptionsPayload(const RecommenderOptions& o, BinaryWriter* w) {
  w->WriteDouble(o.omega);
  w->WriteU8(uint8_t(o.fusion_rule));
  w->WriteI32(o.k_subcommunities);
  w->WriteU8(uint8_t(o.social_mode));
  w->WriteU8(o.use_content ? 1 : 0);
  w->WriteU8(uint8_t(o.content_measure));
  w->WriteU8(o.use_lsb_index ? 1 : 0);
  w->WriteI32(o.lsb_probes);
  w->WriteU64(o.max_candidates);
  w->WriteI32(o.num_threads);
  w->WriteI32(o.segmenter.keyframe_stride);
  w->WriteI32(o.segmenter.q);
  w->WriteI32(o.segmenter.shot_options.histogram_bins);
  w->WriteDouble(o.segmenter.shot_options.threshold_sigmas);
  w->WriteDouble(o.segmenter.shot_options.min_absolute_diff);
  w->WriteI32(o.segmenter.shot_options.min_shot_length);
  w->WriteI32(o.signature.grid_dim);
  w->WriteDouble(o.signature.merge_threshold);
  w->WriteDouble(o.kappa.match_threshold);
  w->WriteDouble(o.lsb.embedding.domain_min);
  w->WriteDouble(o.lsb.embedding.domain_max);
  w->WriteI32(o.lsb.embedding.dims);
  w->WriteI32(o.lsb.lsh.num_hashes);
  w->WriteI32(o.lsb.lsh.bits_per_key);
  w->WriteDouble(o.lsb.lsh.width);
  w->WriteI32(o.lsb.lsh.input_dims);
  w->WriteU64(o.lsb.lsh.seed);
  w->WriteI32(o.lsb.num_trees);
  w->WriteI32(o.lsb.tree_fanout);
}

#define VREC_SNAP_READ(var, expr)            \
  const auto var##_or = (expr);              \
  if (!var##_or.ok()) return var##_or.status(); \
  const auto var = *var##_or

StatusOr<RecommenderOptions> ReadOptionsPayload(BinaryReader* r) {
  RecommenderOptions o;
  VREC_SNAP_READ(omega, r->ReadDouble());
  o.omega = omega;
  VREC_SNAP_READ(fusion, r->ReadU8());
  if (fusion > uint8_t(FusionRule::kMax)) {
    return Status::InvalidArgument("snapshot options: bad fusion rule");
  }
  o.fusion_rule = FusionRule(fusion);
  VREC_SNAP_READ(k, r->ReadI32());
  o.k_subcommunities = k;
  VREC_SNAP_READ(mode, r->ReadU8());
  if (mode > uint8_t(SocialMode::kSarHash)) {
    return Status::InvalidArgument("snapshot options: bad social mode");
  }
  o.social_mode = SocialMode(mode);
  VREC_SNAP_READ(use_content, r->ReadU8());
  o.use_content = use_content != 0;
  VREC_SNAP_READ(measure, r->ReadU8());
  if (measure > uint8_t(ContentMeasure::kErp)) {
    return Status::InvalidArgument("snapshot options: bad content measure");
  }
  o.content_measure = ContentMeasure(measure);
  VREC_SNAP_READ(use_lsb, r->ReadU8());
  o.use_lsb_index = use_lsb != 0;
  VREC_SNAP_READ(probes, r->ReadI32());
  o.lsb_probes = probes;
  VREC_SNAP_READ(max_candidates, r->ReadU64());
  o.max_candidates = size_t(max_candidates);
  VREC_SNAP_READ(threads, r->ReadI32());
  o.num_threads = threads;
  VREC_SNAP_READ(stride, r->ReadI32());
  o.segmenter.keyframe_stride = stride;
  VREC_SNAP_READ(q, r->ReadI32());
  o.segmenter.q = q;
  VREC_SNAP_READ(hist_bins, r->ReadI32());
  o.segmenter.shot_options.histogram_bins = hist_bins;
  VREC_SNAP_READ(sigmas, r->ReadDouble());
  o.segmenter.shot_options.threshold_sigmas = sigmas;
  VREC_SNAP_READ(min_diff, r->ReadDouble());
  o.segmenter.shot_options.min_absolute_diff = min_diff;
  VREC_SNAP_READ(min_shot, r->ReadI32());
  o.segmenter.shot_options.min_shot_length = min_shot;
  VREC_SNAP_READ(grid, r->ReadI32());
  o.signature.grid_dim = grid;
  VREC_SNAP_READ(merge, r->ReadDouble());
  o.signature.merge_threshold = merge;
  VREC_SNAP_READ(match, r->ReadDouble());
  o.kappa.match_threshold = match;
  VREC_SNAP_READ(dmin, r->ReadDouble());
  o.lsb.embedding.domain_min = dmin;
  VREC_SNAP_READ(dmax, r->ReadDouble());
  o.lsb.embedding.domain_max = dmax;
  VREC_SNAP_READ(dims, r->ReadI32());
  o.lsb.embedding.dims = dims;
  VREC_SNAP_READ(hashes, r->ReadI32());
  o.lsb.lsh.num_hashes = hashes;
  VREC_SNAP_READ(bits, r->ReadI32());
  o.lsb.lsh.bits_per_key = bits;
  VREC_SNAP_READ(width, r->ReadDouble());
  o.lsb.lsh.width = width;
  VREC_SNAP_READ(input_dims, r->ReadI32());
  o.lsb.lsh.input_dims = input_dims;
  VREC_SNAP_READ(seed, r->ReadU64());
  o.lsb.lsh.seed = seed;
  VREC_SNAP_READ(trees, r->ReadI32());
  o.lsb.num_trees = trees;
  VREC_SNAP_READ(fanout, r->ReadI32());
  o.lsb.tree_fanout = fanout;
  return o;
}

// A Cuboid is two packed doubles (value then weight), which is exactly its
// wire encoding on a little-endian host, so whole signatures move through
// one span call instead of two stream reads per cuboid. The loader already
// refuses big-endian hosts before reaching this code, but the portable
// per-cuboid path is kept for symmetry with binary_format.cc.
static_assert(sizeof(signature::Cuboid) == 2 * sizeof(double) &&
                  std::is_trivially_copyable_v<signature::Cuboid>,
              "snapshot series bulk path requires packed cuboids");

void WriteSeriesBody(const signature::SignatureSeries& series,
                     BinaryWriter* w) {
  w->WriteU32(uint32_t(series.size()));
  for (const auto& sig : series) {
    w->WriteU32(uint32_t(sig.size()));
    if constexpr (std::endian::native == std::endian::little) {
      w->WriteSpan(sig.data(), sig.size() * sizeof(signature::Cuboid));
    } else {
      for (const auto& c : sig) {
        w->WriteDouble(c.value);
        w->WriteDouble(c.weight);
      }
    }
  }
}

StatusOr<signature::SignatureSeries> ReadSeriesBody(BinaryReader* r) {
  VREC_SNAP_READ(count, r->ReadU32());
  signature::SignatureSeries series;
  series.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VREC_SNAP_READ(cuboids, r->ReadU32());
    // Sanity cap mirroring BinaryReader::kMaxLength: a forged count must
    // fail cleanly before the allocation, not with std::bad_alloc.
    if (cuboids > (1u << 24)) {
      return Status::OutOfRange("snapshot signature cuboid count too large");
    }
    signature::CuboidSignature sig;
    if constexpr (std::endian::native == std::endian::little) {
      sig.resize(cuboids);
      const Status st =
          r->ReadSpan(sig.data(), size_t(cuboids) * sizeof(signature::Cuboid));
      if (!st.ok()) return st;
    } else {
      sig.reserve(cuboids);
      for (uint32_t j = 0; j < cuboids; ++j) {
        VREC_SNAP_READ(value, r->ReadDouble());
        VREC_SNAP_READ(weight, r->ReadDouble());
        sig.push_back({value, weight});
      }
    }
    series.push_back(std::move(sig));
  }
  return series;
}

void WriteHistogramBody(const social::SparseHistogram& h, BinaryWriter* w) {
  w->WriteU32(uint32_t(h.bins.size()));
  for (const auto& [bin, weight] : h.bins) {
    w->WriteI32(bin);
    w->WriteDouble(weight);
  }
  w->WriteDouble(h.sum);
}

StatusOr<social::SparseHistogram> ReadHistogramBody(BinaryReader* r) {
  VREC_SNAP_READ(nnz, r->ReadU32());
  social::SparseHistogram h;
  h.bins.reserve(nnz);
  for (uint32_t i = 0; i < nnz; ++i) {
    VREC_SNAP_READ(bin, r->ReadI32());
    VREC_SNAP_READ(weight, r->ReadDouble());
    h.bins.emplace_back(bin, weight);
  }
  VREC_SNAP_READ(sum, r->ReadDouble());
  h.sum = sum;
  return h;
}

// An EdgeRecord is three packed 8-byte fields (u, v, weight) — exactly its
// wire encoding on a little-endian host, same bulk trick as the cuboid
// series above.
static_assert(
    sizeof(social::SubCommunityMaintainer::EdgeRecord) == 24 &&
        std::is_trivially_copyable_v<
            social::SubCommunityMaintainer::EdgeRecord>,
    "snapshot edge-list bulk path requires packed edge records");

void WriteEdgeList(
    const std::vector<social::SubCommunityMaintainer::EdgeRecord>& edges,
    BinaryWriter* w) {
  w->WriteU64(edges.size());
  if constexpr (std::endian::native == std::endian::little) {
    w->WriteSpan(edges.data(),
                 edges.size() *
                     sizeof(social::SubCommunityMaintainer::EdgeRecord));
  } else {
    for (const auto& e : edges) {
      w->WriteU64(e.u);
      w->WriteU64(e.v);
      w->WriteDouble(e.weight);
    }
  }
}

StatusOr<std::vector<social::SubCommunityMaintainer::EdgeRecord>>
ReadEdgeList(BinaryReader* r) {
  VREC_SNAP_READ(count, r->ReadU64());
  if (count > (uint64_t{1} << 24)) {
    return Status::OutOfRange("snapshot edge list too large");
  }
  std::vector<social::SubCommunityMaintainer::EdgeRecord> edges;
  if constexpr (std::endian::native == std::endian::little) {
    edges.resize(size_t(count));
    const Status st = r->ReadSpan(
        edges.data(),
        size_t(count) * sizeof(social::SubCommunityMaintainer::EdgeRecord));
    if (!st.ok()) return st;
  } else {
    edges.reserve(size_t(count));
    for (uint64_t i = 0; i < count; ++i) {
      VREC_SNAP_READ(u, r->ReadU64());
      VREC_SNAP_READ(v, r->ReadU64());
      VREC_SNAP_READ(weight, r->ReadDouble());
      edges.push_back({u, v, weight});
    }
  }
  return edges;
}

/// Copies `count` little-endian doubles out of a payload (stream load).
std::vector<double> CopyDoubles(const uint8_t* p, size_t count) {
  std::vector<double> out(count);
  if (count > 0) std::memcpy(out.data(), p, count * sizeof(double));
  return out;
}

std::string RawBytes(const void* p, size_t bytes) {
  return bytes == 0 ? std::string()
                    : std::string(static_cast<const char*>(p), bytes);
}

}  // namespace

Status Recommender::SaveSnapshot(const std::string& path,
                                 const SnapshotFleetInfo& fleet) const {
  if (!finalized_) {
    return Status::FailedPrecondition(
        "SaveSnapshot requires a finalized engine");
  }
  if constexpr (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "snapshots require a little-endian host");
  }
  if (fleet.shard_count == 0 || fleet.shard_index >= fleet.shard_count) {
    return Status::InvalidArgument("invalid snapshot fleet coordinates");
  }

  std::string payloads[io::kSnapshotSectionCount];

  // Section 1: options.
  {
    SectionWriter s;
    WriteOptionsPayload(options_, &s.writer);
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionOptions - 1] = std::move(s.stream).str();
  }
  // Section 2: engine counters + per-record state. Tombstones keep their
  // raw series (the LSB forest still indexes them; stale entries are
  // query-time filtered) but save no social or prepared state.
  {
    SectionWriter s;
    s.writer.WriteU64(user_count_);
    s.writer.WriteU64(generation_.load(std::memory_order_acquire));
    s.writer.WriteU64(records_.size());
    for (const Record& r : records_) {
      s.writer.WriteI64(r.id);
      s.writer.WriteU8(r.active ? 1 : 0);
      WriteSeriesBody(r.series, &s.writer);
      s.writer.WriteI64Vector(r.descriptor.users());
      WriteHistogramBody(r.social_vector, &s.writer);
    }
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionEngine - 1] = std::move(s.stream).str();
  }
  // Section 3: user dictionary (SAR modes).
  {
    SectionWriter s;
    s.writer.WriteU8(dictionary_ != nullptr ? 1 : 0);
    if (dictionary_ != nullptr) {
      s.writer.WriteI32(dictionary_->k());
      s.writer.WriteU8(uint8_t(dictionary_->lookup()));
      s.writer.WriteU64(dictionary_->hash_bucket_count());
      s.writer.WriteI32Vector(dictionary_->labels());
    }
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionDictionary - 1] = std::move(s.stream).str();
  }
  // Section 4: sub-community maintainer (SAR modes).
  {
    SectionWriter s;
    s.writer.WriteU8(maintainer_ != nullptr ? 1 : 0);
    if (maintainer_ != nullptr) {
      s.writer.WriteI32(maintainer_->target_k());
      s.writer.WriteDouble(maintainer_->lightest_intra_weight());
      s.writer.WriteI32(maintainer_->label_space());
      s.writer.WriteI32Vector(maintainer_->labels());
      WriteEdgeList(maintainer_->ActiveEdges(), &s.writer);
      WriteEdgeList(maintainer_->DormantEdges(), &s.writer);
    }
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionMaintainer - 1] = std::move(s.stream).str();
  }
  // Section 5: inverted files (ascending community, ascending video id —
  // the order the loader's Append fast path reproduces in O(1) each).
  {
    SectionWriter s;
    s.writer.WriteU64(inverted_file_.lists().size());
    for (const auto& [community, postings] : inverted_file_.lists()) {
      s.writer.WriteI32(community);
      s.writer.WriteU64(postings.size());
      for (const auto& p : postings) {
        s.writer.WriteI64(p.video_id);
        s.writer.WriteDouble(p.weight);
      }
    }
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionInvertedFile - 1] = std::move(s.stream).str();
  }
  // Section 6: LSB forest — every tree's entries in key order; the loader
  // bulk-loads each B+-tree bottom-up, which is probe-identical because
  // probes only walk the leaf chain and the chain reproduces this order.
  {
    SectionWriter s;
    s.writer.WriteU8(lsb_ != nullptr ? 1 : 0);
    if (lsb_ != nullptr) {
      s.writer.WriteU64(lsb_->indexed_signatures());
      const auto trees = uint32_t(lsb_->options().num_trees);
      s.writer.WriteU32(trees);
      for (uint32_t t = 0; t < trees; ++t) {
        for (const index::BPlusTree::Entry& e : lsb_->TreeEntries(t)) {
          s.writer.WriteU64(e.key);
          s.writer.WriteI64(e.payload.video_id);
          s.writer.WriteU32(e.payload.sig_index);
        }
      }
    }
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionLsbForest - 1] = std::move(s.stream).str();
  }
  // Sections 7-11: prepared pool — structural metadata, then the four flat
  // arrays as aligned raw little-endian doubles (the zero-copy payloads).
  {
    SectionWriter s;
    const auto& pool = prepared_pool_;
    s.writer.WriteU64(pool.slots().size());
    for (const auto& slot : pool.slots()) {
      s.writer.WriteU64(slot.view_offset);
      s.writer.WriteU64(slot.count);
      s.writer.WriteU64(slot.bytes);
    }
    s.writer.WriteU64(pool.meta().size());
    for (size_t v = 0; v < pool.meta().size(); ++v) {
      s.writer.WriteU64(pool.meta()[v].elem_offset);
      s.writer.WriteU64(pool.meta()[v].len);
      s.writer.WriteDouble(pool.views()[v].mean);
      s.writer.WriteDouble(pool.views()[v].min_value);
      s.writer.WriteDouble(pool.views()[v].max_value);
    }
    s.writer.WriteU64(pool.live_bytes());
    s.writer.WriteU64(pool.dead_bytes());
    s.writer.WriteU64(pool.element_count());
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionPreparedMeta - 1] = std::move(s.stream).str();
    const size_t elems = pool.element_count();
    payloads[io::kSectionPreparedValues - 1] =
        RawBytes(pool.values_data(), elems * sizeof(double));
    payloads[io::kSectionPreparedWeights - 1] =
        RawBytes(pool.weights_data(), elems * sizeof(double));
    payloads[io::kSectionPreparedCdf - 1] =
        RawBytes(pool.cdf_data(), elems * sizeof(double));
    payloads[io::kSectionPreparedMeans - 1] =
        RawBytes(pool.means_data(), pool.meta().size() * sizeof(double));
  }
  // Sections 12-14: histogram pool — metadata, then bins / weights flats.
  {
    SectionWriter s;
    const auto& pool = histogram_pool_;
    s.writer.WriteU64(pool.slots().size());
    for (const auto& slot : pool.slots()) {
      s.writer.WriteU64(slot.offset);
      s.writer.WriteU64(slot.len);
      s.writer.WriteDouble(slot.sum);
    }
    s.writer.WriteU64(pool.live_bytes());
    s.writer.WriteU64(pool.dead_bytes());
    s.writer.WriteU64(pool.flat_len());
    if (const Status st = s.writer.Finish(); !st.ok()) return st;
    payloads[io::kSectionHistogramMeta - 1] = std::move(s.stream).str();
    payloads[io::kSectionHistogramBins - 1] =
        RawBytes(pool.bins_data(), pool.flat_len() * sizeof(int32_t));
    payloads[io::kSectionHistogramWeights - 1] =
        RawBytes(pool.weights_data(), pool.flat_len() * sizeof(double));
  }

  // Lay the sections out, padding the flat payloads to the alignment
  // boundary so a mapped load can adopt them in place.
  uint32_t pads[io::kSnapshotSectionCount] = {};
  uint64_t offset = io::kSnapshotHeaderBytes;
  for (uint32_t i = 0; i < io::kSnapshotSectionCount; ++i) {
    const uint32_t id = i + 1;
    uint64_t body = offset + io::kSnapshotFrameBytes;
    if (io::IsAlignedSection(id) && body % io::kSnapshotAlignment != 0) {
      pads[i] = uint32_t(io::kSnapshotAlignment - body % io::kSnapshotAlignment);
    }
    offset += io::kSnapshotFrameBytes + pads[i] + payloads[i].size();
  }
  const uint64_t total_bytes = offset;

  std::string header;
  header.reserve(io::kSnapshotHeaderBytes);
  AppendU32(&header, io::kSnapshotMagic);
  AppendU32(&header, io::kSnapshotVersion);
  AppendU32(&header, io::kSnapshotFlagLeFlats);
  AppendU32(&header, io::kSnapshotSectionCount);
  AppendU64(&header, total_bytes);
  AppendU64(&header, io::Fnv1a32(
                         reinterpret_cast<const uint8_t*>(
                             payloads[io::kSectionOptions - 1].data()),
                         payloads[io::kSectionOptions - 1].size()));
  AppendU32(&header, fleet.shard_index);
  AppendU32(&header, fleet.shard_count);
  AppendU32(&header, fleet.global_digest);
  AppendU32(&header,
            io::Fnv1a32(reinterpret_cast<const uint8_t*>(header.data()),
                        header.size()));

  // Atomic publish: write everything to a sibling temp file, rename into
  // place. A crash mid-save leaves at worst a stale .tmp next to the last
  // good snapshot; it never clobbers it.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot create snapshot: " + tmp);
    out.write(header.data(), std::streamsize(header.size()));
    for (uint32_t i = 0; i < io::kSnapshotSectionCount; ++i) {
      std::string frame;
      frame.reserve(io::kSnapshotFrameBytes);
      AppendU32(&frame, i + 1);
      AppendU32(&frame, pads[i]);
      AppendU64(&frame, payloads[i].size());
      AppendU32(&frame,
                io::SnapshotChecksum(payloads[i].data(), payloads[i].size()));
      AppendU32(&frame, 0);  // reserved
      out.write(frame.data(), std::streamsize(frame.size()));
      static const char kZeros[io::kSnapshotAlignment] = {};
      out.write(kZeros, std::streamsize(pads[i]));
      out.write(payloads[i].data(), std::streamsize(payloads[i].size()));
    }
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return Status::Internal("error writing snapshot: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot publish snapshot to " + path);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Recommender>> Recommender::LoadSnapshot(
    const std::string& path, const SnapshotLoadOptions& load,
    SnapshotFleetInfo* fleet) {
  if (load.use_mmap) {
    auto mapped = io::MappedFile::Open(path);
    if (!mapped.ok()) return mapped.status();
    auto backing =
        std::make_shared<io::MappedFile>(std::move(mapped).value());
    const uint8_t* data = backing->data();
    const size_t size = backing->size();
    return LoadSnapshotFromMemory(data, size, /*adopt_flats=*/true,
                                  std::move(backing), load, fleet);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open snapshot: " + path);
  std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  if (!in.good() && !in.eof()) {
    return Status::Internal("error reading snapshot: " + path);
  }
  return LoadSnapshotFromMemory(bytes.data(), bytes.size(),
                                /*adopt_flats=*/false, nullptr, load, fleet);
}

StatusOr<std::unique_ptr<Recommender>> Recommender::LoadSnapshotFromBuffer(
    const uint8_t* data, size_t size, const SnapshotLoadOptions& load,
    SnapshotFleetInfo* fleet) {
  return LoadSnapshotFromMemory(data, size, /*adopt_flats=*/false, nullptr,
                                load, fleet);
}

StatusOr<std::unique_ptr<Recommender>> Recommender::LoadSnapshotFromMemory(
    const uint8_t* data, size_t size, bool adopt_flats,
    std::shared_ptr<const void> backing, const SnapshotLoadOptions& load,
    SnapshotFleetInfo* fleet) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "snapshots require a little-endian host");
  }
  if (data == nullptr && size != 0) {
    return Status::InvalidArgument("null snapshot buffer");
  }
  auto layout = io::ParseSnapshotLayout(data, size);
  if (!layout.ok()) return layout.status();
  const io::SnapshotInfo& info = *layout;

  // Every payload checksum is verified up front: no parsing below runs over
  // corrupted bytes.
  for (const io::SnapshotSectionInfo& s : info.sections) {
    if (io::SnapshotChecksum(data + s.payload_offset, s.payload_bytes) !=
        s.payload_checksum) {
      return Status::InvalidArgument("snapshot section " +
                                     std::to_string(s.id) +
                                     " checksum mismatch");
    }
  }
  auto section = [&](uint32_t id) -> const io::SnapshotSectionInfo& {
    return info.sections[id - 1];
  };
  auto payload = [&](uint32_t id) -> const uint8_t* {
    return data + section(id).payload_offset;
  };

  // --- Section 1: options -> construct the engine. -------------------------
  RecommenderOptions options;
  {
    const auto& s = section(io::kSectionOptions);
    if (io::Fnv1a32(data + s.payload_offset, s.payload_bytes) !=
        uint32_t(info.options_fingerprint)) {
      return Status::InvalidArgument(
          "snapshot options fingerprint mismatch");
    }
    MemBuf buf(payload(io::kSectionOptions), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    auto parsed = ReadOptionsPayload(&r);
    if (!parsed.ok()) return parsed.status();
    options = *parsed;
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot options section has trailing bytes");
    }
  }
  if (load.num_threads >= 0) options.num_threads = load.num_threads;
  if (const Status s = ValidateOptions(options); !s.ok()) return s;
  auto rec = std::make_unique<Recommender>(options);

  // --- Section 2: counters + records. --------------------------------------
  uint64_t generation = 0;
  {
    const auto& s = section(io::kSectionEngine);
    MemBuf buf(payload(io::kSectionEngine), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(user_count, r.ReadU64());
    rec->user_count_ = size_t(user_count);
    VREC_SNAP_READ(gen, r.ReadU64());
    generation = gen;
    VREC_SNAP_READ(record_count, r.ReadU64());
    if (record_count > s.payload_bytes) {
      // Each record costs well over a byte; a forged count dies here
      // instead of in a multi-GB reserve.
      return Status::InvalidArgument(
          "snapshot record count exceeds section byte budget");
    }
    rec->records_.reserve(size_t(record_count));
    for (uint64_t i = 0; i < record_count; ++i) {
      Record record;
      VREC_SNAP_READ(id, r.ReadI64());
      record.id = id;
      VREC_SNAP_READ(active, r.ReadU8());
      if (active > 1) {
        return Status::InvalidArgument("snapshot record flag corrupt");
      }
      record.active = active != 0;
      auto series = ReadSeriesBody(&r);
      if (!series.ok()) return series.status();
      record.series = std::move(*series);
      auto users = r.ReadI64Vector();
      if (!users.ok()) return users.status();
      record.descriptor = social::SocialDescriptor(std::move(*users));
      auto histogram = ReadHistogramBody(&r);
      if (!histogram.ok()) return histogram.status();
      record.social_vector = std::move(*histogram);
      if (record.active) {
        if (rec->index_of_.count(record.id) > 0) {
          return Status::InvalidArgument("snapshot holds duplicate video id");
        }
        const size_t slot = rec->records_.size();
        rec->index_of_[record.id] = slot;
        for (social::UserId u : record.descriptor.users()) {
          rec->videos_of_user_[u].push_back(slot);
        }
      }
      rec->records_.push_back(std::move(record));
    }
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot engine section has trailing bytes");
    }
  }

  // --- Section 3: dictionary. ----------------------------------------------
  {
    const auto& s = section(io::kSectionDictionary);
    MemBuf buf(payload(io::kSectionDictionary), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(present, r.ReadU8());
    if ((present != 0) != rec->UsesSar()) {
      return Status::InvalidArgument(
          "snapshot dictionary presence disagrees with the social mode");
    }
    if (present != 0) {
      VREC_SNAP_READ(k, r.ReadI32());
      VREC_SNAP_READ(lookup, r.ReadU8());
      if (lookup > uint8_t(social::DictionaryLookup::kChainedHash)) {
        return Status::InvalidArgument("snapshot dictionary lookup corrupt");
      }
      VREC_SNAP_READ(buckets, r.ReadU64());
      if (buckets > s.payload_bytes) {
        return Status::InvalidArgument(
            "snapshot dictionary bucket count exceeds section byte budget");
      }
      auto labels = r.ReadI32Vector();
      if (!labels.ok()) return labels.status();
      if (k <= 0) {
        return Status::InvalidArgument("snapshot dictionary k corrupt");
      }
      for (int l : *labels) {
        if (l < 0 || l >= k) {
          return Status::InvalidArgument(
              "snapshot dictionary label out of range");
        }
      }
      rec->dictionary_ = std::make_unique<social::UserDictionary>(
          *labels, k, social::DictionaryLookup(lookup), size_t(buckets));
    }
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot dictionary section has trailing bytes");
    }
  }

  // --- Section 4: maintainer. ----------------------------------------------
  {
    const auto& s = section(io::kSectionMaintainer);
    MemBuf buf(payload(io::kSectionMaintainer), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(present, r.ReadU8());
    if ((present != 0) != rec->UsesSar()) {
      return Status::InvalidArgument(
          "snapshot maintainer presence disagrees with the social mode");
    }
    if (present != 0) {
      VREC_SNAP_READ(k, r.ReadI32());
      VREC_SNAP_READ(w, r.ReadDouble());
      VREC_SNAP_READ(next_label, r.ReadI32());
      auto labels = r.ReadI32Vector();
      if (!labels.ok()) return labels.status();
      auto active_edges = ReadEdgeList(&r);
      if (!active_edges.ok()) return active_edges.status();
      auto dormant_edges = ReadEdgeList(&r);
      if (!dormant_edges.ok()) return dormant_edges.status();
      auto maintainer = social::SubCommunityMaintainer::Restore(
          k, w, next_label, std::move(*labels), *active_edges,
          *dormant_edges, rec->dictionary_.get());
      if (!maintainer.ok()) return maintainer.status();
      rec->maintainer_ = std::move(*maintainer);
    }
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot maintainer section has trailing bytes");
    }
  }

  // --- Section 5: inverted files. ------------------------------------------
  {
    const auto& s = section(io::kSectionInvertedFile);
    MemBuf buf(payload(io::kSectionInvertedFile), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(lists, r.ReadU64());
    if (lists > s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot inverted-file list count exceeds section byte budget");
    }
    for (uint64_t l = 0; l < lists; ++l) {
      VREC_SNAP_READ(community, r.ReadI32());
      VREC_SNAP_READ(count, r.ReadU64());
      if (count > s.payload_bytes) {
        return Status::InvalidArgument(
            "snapshot posting count exceeds section byte budget");
      }
      for (uint64_t p = 0; p < count; ++p) {
        VREC_SNAP_READ(video_id, r.ReadI64());
        VREC_SNAP_READ(weight, r.ReadDouble());
        rec->inverted_file_.Append(community, video_id, weight);
      }
    }
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot inverted-file section has trailing bytes");
    }
  }

  // --- Section 6: LSB forest. ----------------------------------------------
  {
    const auto& s = section(io::kSectionLsbForest);
    MemBuf buf(payload(io::kSectionLsbForest), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(present, r.ReadU8());
    const bool wants_lsb =
        rec->UsesKappaFastPath() && rec->options_.use_lsb_index;
    if ((present != 0) != wants_lsb) {
      return Status::InvalidArgument(
          "snapshot LSB presence disagrees with the engine options");
    }
    if (present != 0) {
      VREC_SNAP_READ(indexed, r.ReadU64());
      VREC_SNAP_READ(trees, r.ReadU32());
      if (trees != uint32_t(rec->options_.lsb.num_trees)) {
        return Status::InvalidArgument(
            "snapshot LSB tree count disagrees with the engine options");
      }
      // Each entry costs 20 payload bytes; reject forged counts before the
      // reserve below.
      if (indexed > s.payload_bytes / 20 / std::max(1u, trees)) {
        return Status::InvalidArgument(
            "snapshot LSB entry count exceeds section byte budget");
      }
      std::vector<std::vector<index::BPlusTree::Entry>> per_tree(trees);
      for (uint32_t t = 0; t < trees; ++t) {
        per_tree[t].reserve(size_t(indexed));
        for (uint64_t e = 0; e < indexed; ++e) {
          VREC_SNAP_READ(key, r.ReadU64());
          VREC_SNAP_READ(video_id, r.ReadI64());
          VREC_SNAP_READ(sig_index, r.ReadU32());
          per_tree[t].push_back({key, {video_id, sig_index}});
        }
      }
      rec->lsb_ = std::make_unique<index::LsbIndex>(rec->options_.lsb);
      if (const Status st =
              rec->lsb_->RestoreTrees(per_tree, size_t(indexed));
          !st.ok()) {
        return st;
      }
    }
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot LSB section has trailing bytes");
    }
  }

  // --- Sections 7-11: prepared pool. ---------------------------------------
  size_t bytes_mapped = 0;
  {
    const auto& s = section(io::kSectionPreparedMeta);
    MemBuf buf(payload(io::kSectionPreparedMeta), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(slot_count, r.ReadU64());
    if (slot_count > s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot prepared slot count exceeds section byte budget");
    }
    std::vector<signature::PreparedPool::Slot> slots;
    slots.reserve(size_t(slot_count));
    for (uint64_t i = 0; i < slot_count; ++i) {
      VREC_SNAP_READ(view_offset, r.ReadU64());
      VREC_SNAP_READ(count, r.ReadU64());
      VREC_SNAP_READ(bytes, r.ReadU64());
      slots.push_back({size_t(view_offset), size_t(count), size_t(bytes)});
    }
    VREC_SNAP_READ(view_count, r.ReadU64());
    if (view_count > s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot prepared view count exceeds section byte budget");
    }
    std::vector<signature::PreparedPool::ViewMeta> meta;
    std::vector<signature::PreparedView> views;
    meta.reserve(size_t(view_count));
    views.reserve(size_t(view_count));
    for (uint64_t v = 0; v < view_count; ++v) {
      VREC_SNAP_READ(elem_offset, r.ReadU64());
      VREC_SNAP_READ(len, r.ReadU64());
      VREC_SNAP_READ(mean, r.ReadDouble());
      VREC_SNAP_READ(min_value, r.ReadDouble());
      VREC_SNAP_READ(max_value, r.ReadDouble());
      meta.push_back({size_t(elem_offset), size_t(len)});
      signature::PreparedView view;
      view.len = size_t(len);
      view.mean = mean;
      view.min_value = min_value;
      view.max_value = max_value;
      views.push_back(view);
    }
    VREC_SNAP_READ(live_bytes, r.ReadU64());
    VREC_SNAP_READ(dead_bytes, r.ReadU64());
    VREC_SNAP_READ(elem_count, r.ReadU64());
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot prepared section has trailing bytes");
    }
    const uint64_t flat_bytes = section(io::kSectionPreparedValues).payload_bytes;
    if (flat_bytes != elem_count * sizeof(double) ||
        section(io::kSectionPreparedWeights).payload_bytes != flat_bytes ||
        section(io::kSectionPreparedCdf).payload_bytes != flat_bytes ||
        section(io::kSectionPreparedMeans).payload_bytes !=
            view_count * sizeof(double)) {
      return Status::InvalidArgument(
          "snapshot prepared flat sections disagree with the metadata");
    }
    if (slot_count > 0 || view_count > 0 || elem_count > 0) {
      if (adopt_flats) {
        signature::PreparedPool::AdoptedFlats flats;
        flats.values = reinterpret_cast<const double*>(
            payload(io::kSectionPreparedValues));
        flats.weights = reinterpret_cast<const double*>(
            payload(io::kSectionPreparedWeights));
        flats.cdf =
            reinterpret_cast<const double*>(payload(io::kSectionPreparedCdf));
        flats.means = reinterpret_cast<const double*>(
            payload(io::kSectionPreparedMeans));
        flats.elem_count = size_t(elem_count);
        flats.means_count = size_t(view_count);
        if (const Status st = rec->prepared_pool_.RestoreBorrowed(
                std::move(slots), std::move(meta), std::move(views), flats,
                size_t(live_bytes), size_t(dead_bytes));
            !st.ok()) {
          return st;
        }
        bytes_mapped += size_t(flat_bytes) * 3 +
                        size_t(view_count) * sizeof(double);
      } else {
        if (const Status st = rec->prepared_pool_.RestoreOwned(
                std::move(slots), std::move(meta), std::move(views),
                CopyDoubles(payload(io::kSectionPreparedValues),
                            size_t(elem_count)),
                CopyDoubles(payload(io::kSectionPreparedWeights),
                            size_t(elem_count)),
                CopyDoubles(payload(io::kSectionPreparedCdf),
                            size_t(elem_count)),
                CopyDoubles(payload(io::kSectionPreparedMeans),
                            size_t(view_count)),
                size_t(live_bytes), size_t(dead_bytes));
            !st.ok()) {
          return st;
        }
      }
    }
  }

  // --- Sections 12-14: histogram pool. -------------------------------------
  {
    const auto& s = section(io::kSectionHistogramMeta);
    MemBuf buf(payload(io::kSectionHistogramMeta), s.payload_bytes);
    std::istream in(&buf);
    BinaryReader r(&in);
    VREC_SNAP_READ(slot_count, r.ReadU64());
    if (slot_count > s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot histogram slot count exceeds section byte budget");
    }
    std::vector<social::HistogramPool::Slot> slots;
    slots.reserve(size_t(slot_count));
    for (uint64_t i = 0; i < slot_count; ++i) {
      VREC_SNAP_READ(offset, r.ReadU64());
      VREC_SNAP_READ(len, r.ReadU64());
      VREC_SNAP_READ(sum, r.ReadDouble());
      slots.push_back({size_t(offset), size_t(len), sum});
    }
    VREC_SNAP_READ(live_bytes, r.ReadU64());
    VREC_SNAP_READ(dead_bytes, r.ReadU64());
    VREC_SNAP_READ(flat_len, r.ReadU64());
    if (buf.consumed() != s.payload_bytes) {
      return Status::InvalidArgument(
          "snapshot histogram section has trailing bytes");
    }
    if (section(io::kSectionHistogramBins).payload_bytes !=
            flat_len * sizeof(int32_t) ||
        section(io::kSectionHistogramWeights).payload_bytes !=
            flat_len * sizeof(double)) {
      return Status::InvalidArgument(
          "snapshot histogram flat sections disagree with the metadata");
    }
    if (slot_count > 0 || flat_len > 0) {
      if (adopt_flats) {
        social::HistogramPool::AdoptedFlats flats;
        flats.bins = reinterpret_cast<const int*>(
            payload(io::kSectionHistogramBins));
        flats.weights = reinterpret_cast<const double*>(
            payload(io::kSectionHistogramWeights));
        flats.len = size_t(flat_len);
        if (const Status st = rec->histogram_pool_.RestoreBorrowed(
                std::move(slots), flats, size_t(live_bytes),
                size_t(dead_bytes));
            !st.ok()) {
          return st;
        }
        bytes_mapped +=
            size_t(flat_len) * (sizeof(int32_t) + sizeof(double));
      } else {
        std::vector<int> bins(static_cast<size_t>(flat_len));
        if (flat_len > 0) {
          std::memcpy(bins.data(), payload(io::kSectionHistogramBins),
                      size_t(flat_len) * sizeof(int32_t));
        }
        std::vector<double> weights =
            CopyDoubles(payload(io::kSectionHistogramWeights),
                        size_t(flat_len));
        if (const Status st = rec->histogram_pool_.RestoreOwned(
                std::move(slots), std::move(bins), std::move(weights),
                size_t(live_bytes), size_t(dead_bytes));
            !st.ok()) {
          return st;
        }
      }
    }
  }

  // --- Derived state not worth persisting: rebuilt deterministically. ------
  if (rec->options_.social_mode == SocialMode::kExact) {
    rec->descriptor_sizes_.resize(rec->records_.size());
    for (size_t i = 0; i < rec->records_.size(); ++i) {
      rec->descriptor_sizes_[i] =
          rec->records_[i].active
              ? double(rec->records_[i].descriptor.size())
              : 0.0;
    }
  }

  rec->finalized_ = true;
  rec->generation_.store(generation, std::memory_order_release);
  if (adopt_flats && bytes_mapped > 0) {
    rec->snapshot_backing_ = std::move(backing);
    rec->snapshot_bytes_mapped_ = bytes_mapped;
  }

  // The full cross-structure audit gates every load: a snapshot that parses
  // but encodes an inconsistent engine is rejected here, never served.
  if (const Status st = rec->CheckInvariants(); !st.ok()) {
    return Status::InvalidArgument("snapshot fails engine invariants: " +
                                   st.message());
  }
  if (fleet != nullptr) *fleet = info.fleet;
  return rec;
}

#undef VREC_SNAP_READ

}  // namespace vrec::core
