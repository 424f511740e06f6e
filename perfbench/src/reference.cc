#include "src/reference.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

uint64_t
fnv1a32(const uint32_t *words, size_t n, uint64_t basis)
{
    uint64_t h = basis;
    for (size_t i = 0; i < n; ++i)
        for (int b = 0; b < 4; ++b) {
            h ^= (words[i] >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    return h;
}

Fingerprint
fingerprintOf(const uint32_t *words, size_t n)
{
    return {fnv1a32(words, n), fnv1a32(words, n, kWireFnvBasis)};
}

EdgePairs
rmatEdges(unsigned log_n, size_t m, Rng &rng)
{
    EdgePairs out(m);
    for (auto &e : out) {
        uint32_t s = 0, d = 0;
        for (unsigned bit = 0; bit < log_n; ++bit) {
            const double r = rng.unit();
            // Quadrants a | b | c | d = 0.57 | 0.19 | 0.19 | 0.05.
            const uint32_t sb = r >= 0.76 ? 1 : 0;
            const uint32_t db = (r >= 0.57 && r < 0.76) || r >= 0.95;
            s = (s << 1) | sb;
            d = (d << 1) | db;
        }
        e = {s, d};
    }
    return out;
}

PagerankRef
pagerankOnce(uint32_t n, const EdgePairs &edges)
{
    std::vector<uint64_t> outdeg(n, 0);
    for (const auto &e : edges)
        ++outdeg[e.first];
    PagerankRef r;
    r.score.assign(n, 0.0);
    r.inDegree.assign(n, 0);
    const double d = 0.85;
    std::vector<double> sum(n, 0.0);
    for (const auto &e : edges) {
        sum[e.second] += (1.0 / n) / static_cast<double>(outdeg[e.first]);
        ++r.inDegree[e.second];
    }
    for (uint32_t v = 0; v < n; ++v)
        r.score[v] = (1.0 - d) / n + d * sum[v];
    return r;
}

double
pagerankTolerance(const PagerankRef &ref, uint32_t v)
{
    const double k = static_cast<double>(ref.inDegree[v]);
    return 4.0 * (k + 2.0) * 0x1.0p-24 * std::abs(ref.score[v]) + 1e-30;
}

int64_t
pagerankMismatch(const PagerankRef &ref, const float *got, size_t n)
{
    if (n != ref.score.size())
        return 0;
    for (size_t v = 0; v < n; ++v)
        if (!(std::abs(static_cast<double>(got[v]) - ref.score[v]) <=
              pagerankTolerance(ref, static_cast<uint32_t>(v))))
            return static_cast<int64_t>(v);
    return -1;
}

bool
EdgeSetModel::has(uint32_t s, uint32_t d) const
{
    return pos_.count(key(s, d)) != 0;
}

bool
EdgeSetModel::insert(uint32_t s, uint32_t d)
{
    const uint64_t k = key(s, d);
    if (!pos_.emplace(k, edges_.size()).second)
        return false;
    edges_.push_back(k);
    ++outDeg_[s];
    return true;
}

bool
EdgeSetModel::remove(uint32_t s, uint32_t d)
{
    auto it = pos_.find(key(s, d));
    if (it == pos_.end())
        return false;
    const size_t i = it->second;
    pos_.erase(it);
    if (i + 1 != edges_.size()) {
        edges_[i] = edges_.back();
        pos_[edges_[i]] = i;
    }
    edges_.pop_back();
    --outDeg_[s];
    return true;
}

std::pair<uint32_t, uint32_t>
EdgeSetModel::edgeAt(size_t i) const
{
    return {static_cast<uint32_t>(edges_[i] >> 32),
            static_cast<uint32_t>(edges_[i])};
}

Fingerprint
EdgeSetModel::degreeChecksum() const
{
    return fingerprintOf(outDeg_.data(), outDeg_.size());
}

EdgePairs
EdgeSetModel::sortedEdges() const
{
    std::vector<uint64_t> keys(edges_);
    std::sort(keys.begin(), keys.end());
    EdgePairs out;
    out.reserve(keys.size());
    for (uint64_t k : keys)
        out.emplace_back(static_cast<uint32_t>(k >> 32),
                         static_cast<uint32_t>(k));
    return out;
}

Fingerprint
EdgeSetModel::fingerprint() const
{
    std::vector<uint32_t> w(outDeg_);
    for (const auto &e : sortedEdges())
        w.push_back(e.second);
    return fingerprintOf(w.data(), w.size());
}

std::vector<MutationOp>
MutationStream::nextBatch(size_t ops)
{
    const uint32_t n = model_.numNodes();
    std::unordered_set<uint64_t> touched;
    auto fresh = [&](uint32_t s, uint32_t d) {
        return s != d &&
               touched.insert((static_cast<uint64_t>(s) << 32) | d).second;
    };
    // A live edge not yet touched by this batch (false if none found).
    auto pickLive = [&](uint32_t *s, uint32_t *d) {
        for (int tries = 0; tries < 64 && model_.size() > 0; ++tries) {
            auto e = model_.edgeAt(rng_.below(model_.size()));
            if (fresh(e.first, e.second)) {
                *s = e.first;
                *d = e.second;
                return true;
            }
        }
        return false;
    };
    auto pickAbsent = [&](uint32_t *s, uint32_t *d) {
        for (;;) {
            const uint32_t a = rng_.below(n), b = rng_.below(n);
            if (!model_.has(a, b) && fresh(a, b)) {
                *s = a;
                *d = b;
                return;
            }
        }
    };

    std::vector<MutationOp> out;
    out.reserve(ops);
    while (out.size() < ops) {
        MutationOp op;
        const double r = rng_.unit();
        if (r < 0.05) {
            if (!pickLive(&op.src, &op.dst))
                continue;
            op.remove = false; // duplicate insert: must dedupe
        } else if (r < 0.10) {
            pickAbsent(&op.src, &op.dst);
            op.remove = true; // delete of a non-live edge: must reject
        } else {
            const double p_ins = model_.size() < target_ ? 0.6 : 0.4;
            if (rng_.unit() >= p_ins && pickLive(&op.src, &op.dst)) {
                op.remove = true;
                model_.remove(op.src, op.dst);
            } else {
                pickAbsent(&op.src, &op.dst);
                model_.insert(op.src, op.dst);
            }
        }
        out.push_back(op);
    }
    return out;
}

std::vector<MutationOp>
MutationStream::fillBatch(size_t ops)
{
    std::vector<MutationOp> out(ops);
    for (auto &op : out) {
        for (;;) {
            op.src = rng_.below(model_.numNodes());
            op.dst = rng_.below(model_.numNodes());
            if (op.src != op.dst && model_.insert(op.src, op.dst))
                break;
        }
    }
    return out;
}

} // namespace perfbench
