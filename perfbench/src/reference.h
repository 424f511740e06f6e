/**
 * @file
 * The benchmark's own references. Outputs of the program are checked
 * against these, which are computed here without calling the program:
 * FNV-1a, a seeded generator, degree histograms, an edge-set model of a
 * mutable graph, and a double-precision PageRank iteration.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/** The FNV-1a 64-bit offset basis. */
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/**
 * The offset basis of the program's result fingerprint (src/util/fnv.h):
 * FNV-1a's 14695981039346656037 with its last digit missing.
 */
inline constexpr uint64_t kWireFnvBasis = 1469598103934665603ull;

/** FNV-1a over little-endian 32-bit words, byte at a time. */
uint64_t fnv1a32(const uint32_t *words, size_t n,
                 uint64_t basis = kFnvBasis);

/**
 * Expected fingerprint of a word sequence. A served fingerprint matches
 * when it is the sequence's FNV-1a under the standard basis or under
 * the program's: either is an exact fingerprint of the sequence, and
 * accepting both keeps the checks valid once the program's basis is
 * corrected.
 */
struct Fingerprint
{
    uint64_t standard = 0, wire = 0;
    bool matches(uint64_t got) const { return got == standard || got == wire; }
};
Fingerprint fingerprintOf(const uint32_t *words, size_t n);

/** splitmix64: the benchmark's input generator, seeded from --seed. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n) (multiply-shift; n < 2^32). */
    uint32_t
    below(uint64_t n)
    {
        return static_cast<uint32_t>(((next() >> 32) * n) >> 32);
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

using EdgePairs = std::vector<std::pair<uint32_t, uint32_t>>;

/**
 * R-MAT (a, b, c) = (0.57, 0.19, 0.19) power-law edges over 2^log_n
 * vertices: the skewed request streams of the serving workload.
 */
EdgePairs rmatEdges(unsigned log_n, size_t m, Rng &rng);

/** Out-degree histogram of src(0 .. m-1) over [0, n). */
template <typename Src>
std::vector<uint32_t>
sourceHistogram(uint64_t n, size_t m, Src src)
{
    std::vector<uint32_t> h(n, 0);
    for (size_t i = 0; i < m; ++i)
        ++h[src(i)];
    return h;
}

/**
 * One PageRank iteration from the uniform vector, in double precision,
 * over the multigraph @p edges on @p n vertices (damping 0.85):
 * r[v] = (1 - d) / n + d * sum over (u, v) of (1 / n) / outdeg(u).
 */
struct PagerankRef
{
    std::vector<double> score;
    std::vector<uint32_t> inDegree; ///< terms summed per vertex
};
PagerankRef pagerankOnce(uint32_t n, const EdgePairs &edges);

/**
 * Largest error a single-precision evaluation of @p ref may show at
 * vertex @p v: the recursive-summation bound (k + 2) * 2^-24 relative,
 * times four for the contribution divisions, for k in-edges.
 */
double pagerankTolerance(const PagerankRef &ref, uint32_t v);

/**
 * First vertex whose single-precision score lies outside tolerance of
 * the reference, or -1.
 */
int64_t pagerankMismatch(const PagerankRef &ref, const float *got,
                         size_t n);

/**
 * The live edge set of one mutable-graph tenant, maintained from the
 * mutation stream the benchmark generates. Its fingerprint is the
 * snapshot definition: out-degree of every vertex, then every live
 * neighbour in ascending (src, dst) order, hashed with FNV-1a.
 */
class EdgeSetModel
{
  public:
    explicit EdgeSetModel(uint32_t n) : n_(n), outDeg_(n, 0) {}

    uint32_t numNodes() const { return n_; }
    size_t size() const { return edges_.size(); }
    bool has(uint32_t s, uint32_t d) const;

    /** Returns true when the edge was not live (and now is). */
    bool insert(uint32_t s, uint32_t d);

    /** Returns true when the edge was live (and now is not). */
    bool remove(uint32_t s, uint32_t d);

    /** The i-th live edge in storage order (for picking deletes). */
    std::pair<uint32_t, uint32_t> edgeAt(size_t i) const;

    const std::vector<uint32_t> &outDegrees() const { return outDeg_; }

    /** Fingerprint of the out-degree sequence (DegreeCount kMutate). */
    Fingerprint degreeChecksum() const;

    /** Snapshot fingerprint (kSnapshot). */
    Fingerprint fingerprint() const;

    /** Live edges sorted by (src, dst). */
    EdgePairs sortedEdges() const;

  private:
    static uint64_t key(uint32_t s, uint32_t d)
    {
        return (static_cast<uint64_t>(s) << 32) | d;
    }

    uint32_t n_;
    std::vector<uint32_t> outDeg_;
    std::vector<uint64_t> edges_;               ///< live keys
    std::unordered_map<uint64_t, size_t> pos_;  ///< key -> index
};

/** One generated mutation op. */
struct MutationOp
{
    uint32_t src = 0, dst = 0;
    bool remove = false;
};

/**
 * The serving workload's mutation stream for one tenant. Nine ops in
 * ten change the edge set (an insert of a non-live edge or a delete of
 * a live one, steering the live count toward @p target); the tenth is
 * a deliberate no-op (an insert of a live edge, which the program must
 * dedupe, or a delete of a non-live one, which it must reject). No edge
 * appears twice in one batch. The model is advanced as ops are drawn.
 */
class MutationStream
{
  public:
    MutationStream(uint32_t n, size_t target, uint64_t seed)
        : model_(n), target_(target), rng_(seed)
    {
    }

    std::vector<MutationOp> nextBatch(size_t ops);

    /** Batch of @p ops inserts of non-live edges (warm-up fill). */
    std::vector<MutationOp> fillBatch(size_t ops);

    const EdgeSetModel &model() const { return model_; }

  private:
    EdgeSetModel model_;
    size_t target_;
    Rng rng_;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
