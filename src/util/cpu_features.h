/**
 * @file
 * Host cache-topology probe for the native PB runtime: native runs
 * size against the *host's* cache geometry when measurable (sysfs, see
 * hostCacheBudget in src/pb/auto_tune.h), and against the simulated
 * Table II machine's HierarchyConfig otherwise, so native wall-clock
 * runs and simulated runs are each sized for the machine they actually
 * execute on.
 *
 * This is a cold-path, cached-once probe: no hot code reads sysfs.
 */

#ifndef COBRA_UTIL_CPU_FEATURES_H
#define COBRA_UTIL_CPU_FEATURES_H

#include <cstdint>
#include <fstream>
#include <string>

namespace cobra {

/**
 * Data-cache geometry of the executing host. `detected` says whether
 * the numbers came from the machine (sysfs) or are all-zero placeholders
 * the caller must replace with fallback values (hostCacheBudget uses the
 * simulated machine's HierarchyConfig, keeping behavior deterministic on
 * hosts that hide their topology, e.g. some containers).
 */
struct HostCacheGeometry
{
    uint64_t l1dBytes = 0;
    uint64_t l2Bytes = 0;
    uint64_t llcBytes = 0;
    bool detected = false;
};

namespace detail {

/** Parse a sysfs cache size string ("32K", "8192K", "2M"). 0 on junk. */
inline uint64_t
parseCacheSize(const std::string &s)
{
    if (s.empty())
        return 0;
    char *end = nullptr;
    uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str())
        return 0;
    if (*end == 'K' || *end == 'k')
        v *= 1024;
    else if (*end == 'M' || *end == 'm')
        v *= 1024 * 1024;
    else if (*end == 'G' || *end == 'g')
        v *= 1024ull * 1024 * 1024;
    return v;
}

inline std::string
readSysfsLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (in)
        std::getline(in, line);
    return line;
}

} // namespace detail

/**
 * Probe a sysfs cache directory (default: cpu0's). Returns detected ==
 * false (all zero sizes) when the topology is absent or unreadable;
 * partial topologies keep whatever levels were found and report detected
 * only if at least L1D plus one outer level materialized. @p cache_dir
 * is parameterizable so tests can point the probe at fixture trees
 * (missing files, garbage sizes) without touching the real sysfs.
 */
inline HostCacheGeometry
detectHostCacheGeometry(
    const std::string &cache_dir = "/sys/devices/system/cpu/cpu0/cache")
{
    HostCacheGeometry g;
    const std::string base = cache_dir + "/index";
    for (int i = 0; i < 8; ++i) {
        const std::string dir = base + std::to_string(i) + "/";
        std::string level = detail::readSysfsLine(dir + "level");
        if (level.empty())
            break;
        std::string type = detail::readSysfsLine(dir + "type");
        if (type == "Instruction")
            continue;
        uint64_t size = detail::parseCacheSize(
            detail::readSysfsLine(dir + "size"));
        if (size == 0)
            continue;
        if (level == "1")
            g.l1dBytes = size;
        else if (level == "2")
            g.l2Bytes = size;
        else if (size > g.llcBytes)
            g.llcBytes = size; // outermost (largest) level wins
    }
    // Single-level-of-cache hosts: treat L2 as the LLC and vice versa so
    // both budgets stay meaningful.
    if (g.llcBytes == 0)
        g.llcBytes = g.l2Bytes;
    if (g.l2Bytes == 0)
        g.l2Bytes = g.llcBytes;
    g.detected = g.l1dBytes != 0 && g.l2Bytes != 0 && g.llcBytes != 0;
    if (!g.detected)
        g = HostCacheGeometry{};
    return g;
}

/** Cached-once geometry of this host (the probe never changes). */
inline const HostCacheGeometry &
hostCacheGeometry()
{
    static const HostCacheGeometry g = detectHostCacheGeometry();
    return g;
}

} // namespace cobra

#endif // COBRA_UTIL_CPU_FEATURES_H
