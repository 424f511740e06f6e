/**
 * @file
 * Self-tests of the benchmark's references on tiny hand-checked
 * inputs. Each check is also shown a deliberately corrupted output,
 * which it must reject. Run at the start of every invocation.
 */

#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "src/common.h"
#include "src/reference.h"

namespace perfbench {

namespace {

/** Byte-wise FNV-1a, the published definition the word form must match. */
uint64_t
fnvBytes(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Checker
{
    bool ok = true;
    void expect(bool cond, const char *what)
    {
        if (!cond) {
            ok = false;
            std::cerr << "perfbench selftest: " << what << "\n";
        }
    }
};

} // namespace

bool
runSelfTests()
{
    Checker c;

    // FNV-1a: published 64-bit vectors, then the word form against the
    // byte form over the same little-endian bytes.
    c.expect(fnvBytes("") == 0xcbf29ce484222325ull, "fnv ''");
    c.expect(fnvBytes("a") == 0xaf63dc4c8601ec8cull, "fnv 'a'");
    c.expect(fnvBytes("foobar") == 0x85944171f73967e8ull, "fnv 'foobar'");
    c.expect(fnv1a32(nullptr, 0) == 0xcbf29ce484222325ull, "fnv32 empty");
    c.expect(fnv1a32(nullptr, 0, kWireFnvBasis) == 1469598103934665603ull,
             "fnv32 empty, program basis");
    const uint32_t words[2] = {0x626f6f66u, 0x66207261u}; // "foobar f"
    c.expect(fnv1a32(words, 2) == fnvBytes("foobar f"), "fnv32 words");
    const uint32_t swapped[2] = {words[1], words[0]};
    c.expect(fnv1a32(swapped, 2) != fnvBytes("foobar f"),
             "fnv32 must reject reordered words");

    // Source-degree histogram.
    const uint32_t src[] = {3, 1, 3, 0, 3};
    const std::vector<uint32_t> want = {1, 1, 0, 3, 0};
    auto at = [&](size_t i) { return src[i]; };
    c.expect(sourceHistogram(5, 5, at) == want, "histogram");
    std::vector<uint32_t> corrupt = want;
    corrupt[3] = 2;
    c.expect(sourceHistogram(5, 5, at) != corrupt,
             "histogram must reject a lost update");
    const uint32_t want_words[] = {1, 1, 0, 3, 0};
    const uint32_t bad_words[] = {1, 0, 1, 3, 0};
    c.expect(fnv1a32(want.data(), 5) == fnv1a32(want_words, 5),
             "degree-sequence fingerprint");
    c.expect(fnv1a32(want.data(), 5) != fnv1a32(bad_words, 5),
             "degree-sequence fingerprint must reject a moved count");

    // Edge-set model: live set {(0,1), (1,2), (2,0)} after the ops
    // below; snapshot words = degrees then neighbours by (src, dst).
    EdgeSetModel m(3);
    c.expect(m.insert(0, 2) && m.insert(0, 1) && m.insert(2, 0),
             "model inserts");
    c.expect(!m.insert(0, 1), "model dedupes a live insert");
    c.expect(m.remove(0, 2) && !m.remove(0, 2), "model delete once");
    c.expect(m.insert(1, 2), "model insert");
    const uint32_t snap[] = {1, 1, 1, 1, 2, 0};
    const uint32_t snap_bad[] = {1, 1, 1, 2, 1, 0};
    c.expect(m.fingerprint().matches(fnv1a32(snap, 6)) &&
                 m.fingerprint().matches(fnv1a32(snap, 6, kWireFnvBasis)),
             "model fingerprint");
    c.expect(!m.fingerprint().matches(fnv1a32(snap_bad, 6)) &&
                 !m.fingerprint().matches(fnv1a32(snap_bad, 6, kWireFnvBasis)),
             "model fingerprint must reject a misordered snapshot");
    c.expect(m.degreeChecksum().matches(fnv1a32(snap, 3)), "model degrees");

    // Mutation stream: replaying its ops on a fresh model reproduces
    // the stream's model, no edge repeats within a batch, and applied
    // ops are the majority.
    MutationStream ms(64, 300, 7);
    EdgeSetModel replay(64);
    size_t applied = 0, total = 0;
    for (int b = 0; b < 6; ++b) {
        std::set<std::pair<uint32_t, uint32_t>> seen;
        for (const MutationOp &op : ms.nextBatch(100)) {
            c.expect(seen.insert({op.src, op.dst}).second,
                     "stream repeats an edge within a batch");
            applied += op.remove ? replay.remove(op.src, op.dst)
                                 : replay.insert(op.src, op.dst);
            ++total;
        }
    }
    c.expect(replay.fingerprint().standard ==
                 ms.model().fingerprint().standard,
             "stream model tracks its ops");
    c.expect(applied * 2 > total, "stream applied ops are the majority");

    // Double-precision PageRank on 0->1, 0->2, 1->2 (n = 3, d = 0.85).
    const PagerankRef pr = pagerankOnce(3, {{0, 1}, {0, 2}, {1, 2}});
    const double base = 0.15 / 3;
    c.expect(std::abs(pr.score[0] - base) < 1e-15 &&
                 std::abs(pr.score[1] - (base + 0.85 / 6)) < 1e-15 &&
                 std::abs(pr.score[2] - (base + 0.85 / 2)) < 1e-15,
             "pagerank scores");
    float got[3] = {static_cast<float>(pr.score[0]),
                    static_cast<float>(pr.score[1]),
                    static_cast<float>(pr.score[2])};
    c.expect(pagerankMismatch(pr, got, 3) == -1, "pagerank accepts floats");
    got[1] *= 1.001f;
    c.expect(pagerankMismatch(pr, got, 3) == 1,
             "pagerank must reject a perturbed score");
    return c.ok;
}

} // namespace perfbench
