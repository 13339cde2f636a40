#ifndef VREC_REFERENCE_KERNELS_H_
#define VREC_REFERENCE_KERNELS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "index/inverted_file.h"
#include "social/descriptor.h"
#include "social/sar.h"

// Naive forms of the paper's social kernels: the straightforward dense and
// string-set computations the engine's fast paths are checked against. Only
// tests and benches link this library; nothing under src/ may.

namespace vrec::reference {

/// User-name strings of a descriptor, in the descriptor's id order.
std::vector<std::string> NamesOf(const social::SocialDescriptor& descriptor);

/// The paper's baseline computation of Equation 5: social descriptors as
/// raw user-name string sets, intersected by pairwise string comparison —
/// "the computation complexity of the measure is quadratic to the number of
/// elements in two compared social descriptors" (Section 4.2.1). Inputs may
/// be unsorted and must be duplicate-free. Returns 0 when both are empty.
double ExactJaccardByNames(const std::vector<std::string>& a,
                           const std::vector<std::string>& b);

/// Expands a sparse histogram to a dense k-dimensional vector. Bins outside
/// [0, k) are dropped.
std::vector<double> ToDense(const social::SparseHistogram& histogram, int k);

/// Dense k-bin user histogram of a descriptor by dictionary id lookup: bin
/// i counts the descriptor's users in sub-community i (k = dictionary.k()).
/// Unknown users are skipped.
std::vector<double> Vectorize(const social::UserDictionary& dictionary,
                              const social::SocialDescriptor& descriptor);

/// As Vectorize, but resolving each user through its name (the dictionary's
/// configured lookup structure).
std::vector<double> VectorizeByName(const social::UserDictionary& dictionary,
                                    const std::vector<std::string>& names);

/// Equation 6 over dense vectors:
///   sJ~ = sum_i min(dQ_i, dV_i) / sum_i max(dQ_i, dV_i).
/// A shorter vector's missing tail counts as zero. Returns 0 when both
/// vectors are all-zero.
double ApproxJaccard(const std::vector<double>& a,
                     const std::vector<double>& b);

/// Social candidate generation over a dense query histogram: for every
/// video posted under a community where the query has positive mass, the
/// dot product of query mass and posting weight. Returns (video id, score)
/// sorted by descending score, ties by ascending id.
std::vector<std::pair<int64_t, double>> Candidates(
    const index::InvertedFile& file, const std::vector<double>& query);

}  // namespace vrec::reference

#endif  // VREC_REFERENCE_KERNELS_H_
