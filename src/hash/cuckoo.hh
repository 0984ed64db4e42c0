/**
 * @file
 * Generic 2-ary cuckoo hash set.
 *
 * The VAT (§V-B, §VII-A) stores each system call's validated argument sets
 * in a two-way cuckoo hash table so that a lookup costs exactly two probes
 * that can proceed in parallel, and collisions resolve gracefully via
 * displacement. On insert, if the displacement chain exceeds a threshold,
 * one entry is evicted to make room (the paper's "OS makes room by
 * evicting one entry").
 *
 * The two hash functions are one callable type parameter, invoked as
 * `hasher(way, key)`: the VAT passes a stateless hasher, so a probe
 * inlines down to the CRC calls, while FunctionHasher (the default)
 * keeps the two-std::function form for tests and ad-hoc tables.
 * Power-of-two tables index with a mask, other sizes by modulo.
 */

#ifndef DRACO_HASH_CUCKOO_HH
#define DRACO_HASH_CUCKOO_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace draco {

/** Identifies which of the two hash functions located an entry. */
enum class CuckooWay : uint8_t {
    H1 = 0,
    H2 = 1,
};

/** Outcome of a cuckoo insertion. */
enum class CuckooInsert {
    Inserted,       ///< Key stored in an empty slot.
    AlreadyPresent, ///< Key was already in the table.
    EvictedVictim,  ///< Key stored, but another key was evicted for room.
};

/** Two per-way std::function hashes behind the (way, key) interface. */
template <typename Key>
struct FunctionHasher {
    std::function<uint64_t(const Key &)> h1;
    std::function<uint64_t(const Key &)> h2;

    uint64_t
    operator()(CuckooWay way, const Key &key) const
    {
        return way == CuckooWay::H1 ? h1(key) : h2(key);
    }
};

/** Statistics describing a table's dynamic behaviour. */
struct CuckooStats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t displacements = 0;
    uint64_t evictions = 0;
};

/**
 * Fixed-capacity two-way cuckoo hash set.
 *
 * @tparam Key Stored key type (must be equality comparable).
 * @tparam Hasher Callable `uint64_t(CuckooWay, const Key &)` giving each
 *         way's hash value.
 *
 * Each way holds `buckets` slots; a key lives either at index
 * `hasher(H1, key)` of way 0 or `hasher(H2, key)` of way 1, reduced to
 * the bucket count (a mask when it is a power of two, else a modulo).
 * The owner (the VAT) hashes with CRC-64 ECMA / ¬ECMA over the masked
 * argument bytes.
 */
template <typename Key, typename Hasher = FunctionHasher<Key>>
class CuckooTable
{
  public:
    /** Result of a successful lookup. */
    struct Found {
        CuckooWay way;   ///< Which hash function located the key.
        uint64_t hash;   ///< The raw hash value from that function.
        uint64_t index;  ///< Slot index within the way.
    };

    /**
     * @param buckets Number of slots per way (total capacity 2×buckets).
     * @param hasher The two hash functions.
     * @param max_displacements Displacement-chain bound before eviction.
     */
    explicit CuckooTable(size_t buckets, Hasher hasher = Hasher{},
                         unsigned max_displacements = 16)
        : _hasher(std::move(hasher)), _maxDisplacements(max_displacements),
          _buckets(buckets),
          _mask(std::has_single_bit(buckets) ? buckets - 1 : 0)
    {
        if (buckets == 0)
            fatal("CuckooTable: bucket count must be > 0");
        _slots.assign(2 * buckets, Slot{});
    }

    /**
     * Probe both ways for @p key.
     *
     * @return Location info on hit, std::nullopt on miss.
     */
    std::optional<Found>
    lookup(const Key &key) const
    {
        ++_stats.lookups;
        auto found = probe(key);
        if (found)
            ++_stats.hits;
        return found;
    }

    /** @return true if @p key is present. */
    bool contains(const Key &key) const { return lookup(key).has_value(); }

    /**
     * Insert @p key, displacing residents along the cuckoo chain as
     * needed. If the chain exceeds the displacement bound, the key at the
     * end of the chain is evicted.
     *
     * @param key Key to insert.
     * @param evicted Receives the evicted key when the result is
     *                EvictedVictim (may be nullptr if uninteresting).
     */
    CuckooInsert
    insert(const Key &key, Key *evicted = nullptr)
    {
        // Internal presence probe: does not touch the lookup/hit
        // counters, which account externally observed traffic only.
        if (probe(key))
            return CuckooInsert::AlreadyPresent;

        ++_stats.insertions;

        // Prefer a free slot in either way before displacing anyone.
        for (unsigned w = 0; w < 2; ++w) {
            Slot &slot = slotFor(static_cast<CuckooWay>(w), key);
            if (!slot.occupied) {
                slot.occupied = true;
                slot.key = key;
                ++_size;
                return CuckooInsert::Inserted;
            }
        }

        Key pending = key;
        unsigned way = 0;
        for (unsigned step = 0; step < _maxDisplacements; ++step) {
            Slot &slot = slotFor(static_cast<CuckooWay>(way), pending);
            if (!slot.occupied) {
                slot.occupied = true;
                slot.key = pending;
                ++_size;
                return CuckooInsert::Inserted;
            }
            std::swap(slot.key, pending);
            ++_stats.displacements;
            way ^= 1;
        }
        // Chain bound exceeded: the pending key is the victim.
        ++_stats.evictions;
        if (evicted)
            *evicted = pending;
        return CuckooInsert::EvictedVictim;
    }

    /**
     * Remove @p key.
     *
     * @return true if the key was present and removed.
     */
    bool
    erase(const Key &key)
    {
        auto found = lookup(key);
        if (!found)
            return false;
        Slot &slot = _slots[slotNumber(found->way, found->index)];
        slot.occupied = false;
        slot.key = Key{};
        --_size;
        return true;
    }

    /** Remove every key. */
    void
    clear()
    {
        for (auto &slot : _slots)
            slot = Slot{};
        _size = 0;
    }

    /**
     * Read one slot by location — the hardware preload path addresses
     * the table by (way, index) rather than by key.
     *
     * @return The occupant key, or nullptr when the slot is empty.
     */
    const Key *
    at(CuckooWay way, uint64_t index) const
    {
        const Slot &slot = _slots[slotNumber(way, indexOf(index))];
        return slot.occupied ? &slot.key : nullptr;
    }

    /** Invoke @p fn on every stored key. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &slot : _slots)
            if (slot.occupied)
                fn(slot.key);
    }

    /**
     * Invoke @p fn(way, index, key) on every occupied slot, way-major
     * then index order — the deterministic enumeration snapshot
     * encoders serialize.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (size_t n = 0; n < _slots.size(); ++n)
            if (_slots[n].occupied)
                fn(static_cast<CuckooWay>(n / _buckets),
                   static_cast<uint64_t>(n % _buckets), _slots[n].key);
    }

    /**
     * Place @p key at the exact slot (@p way, @p index) — snapshot
     * restore reproduces a table's layout verbatim rather than
     * replaying the insertion history, so post-restore displacement
     * and eviction behaviour is identical to never having snapshotted.
     *
     * @return false (table untouched) when @p index is out of range or
     *         the slot is already occupied.
     */
    bool
    placeAt(CuckooWay way, uint64_t index, const Key &key)
    {
        if (index >= buckets())
            return false;
        Slot &slot = _slots[slotNumber(way, index)];
        if (slot.occupied)
            return false;
        slot.occupied = true;
        slot.key = key;
        ++_size;
        return true;
    }

    /** Replace the behaviour counters (snapshot restore). */
    void restoreStats(const CuckooStats &stats) { _stats = stats; }

    /** @return The slot index within a way that hash value @p hash selects. */
    uint64_t
    indexOf(uint64_t hash) const
    {
        return _mask ? hash & _mask : hash % _buckets;
    }

    /** @return Number of stored keys. */
    size_t size() const { return _size; }

    /** @return Slots per way. */
    size_t buckets() const { return _buckets; }

    /** @return Total slot capacity (2 × buckets). */
    size_t capacity() const { return 2 * buckets(); }

    /** @return Dynamic behaviour counters. */
    const CuckooStats &stats() const { return _stats; }

    /** Export counters and occupancy under @p prefix. */
    void
    exportMetrics(MetricRegistry &registry,
                  const std::string &prefix) const
    {
        auto name = [&](const char *metric) {
            return MetricRegistry::join(prefix, metric);
        };
        registry.setCounter(name("lookups"), _stats.lookups);
        registry.setCounter(name("hits"), _stats.hits);
        registry.setCounter(name("insertions"), _stats.insertions);
        registry.setCounter(name("displacements"),
                            _stats.displacements);
        registry.setCounter(name("evictions"), _stats.evictions);
        registry.setCounter(name("size"), _size);
        registry.setCounter(name("capacity"), capacity());
        registry.setGauge(name("hit_rate"),
                          _stats.lookups
                              ? static_cast<double>(_stats.hits) /
                                  static_cast<double>(_stats.lookups)
                              : 0.0);
    }

  private:
    struct Slot {
        bool occupied = false;
        Key key{};
    };

    /** @return Position of (way, index) in the way-major slot array. */
    size_t
    slotNumber(CuckooWay way, uint64_t index) const
    {
        return static_cast<size_t>(way) * _buckets + index;
    }

    /** @return The slot @p key hashes to in @p way. */
    Slot &
    slotFor(CuckooWay way, const Key &key)
    {
        return _slots[slotNumber(way, indexOf(_hasher(way, key)))];
    }

    /**
     * Stat-free presence probe shared by lookup() and insert(); H2 is
     * computed only when the H1 slot misses.
     */
    std::optional<Found>
    probe(const Key &key) const
    {
        uint64_t hv1 = _hasher(CuckooWay::H1, key);
        uint64_t idx1 = indexOf(hv1);
        const Slot &s1 = _slots[idx1];
        if (s1.occupied && s1.key == key)
            return Found{CuckooWay::H1, hv1, idx1};
        uint64_t hv2 = _hasher(CuckooWay::H2, key);
        uint64_t idx2 = indexOf(hv2);
        const Slot &s2 = _slots[slotNumber(CuckooWay::H2, idx2)];
        if (s2.occupied && s2.key == key)
            return Found{CuckooWay::H2, hv2, idx2};
        return std::nullopt;
    }

    [[no_unique_address]] Hasher _hasher;
    unsigned _maxDisplacements;
    size_t _buckets;
    uint64_t _mask; ///< buckets - 1 for power-of-two sizes, else 0.
    std::vector<Slot> _slots; ///< Way 0's buckets, then way 1's.
    size_t _size = 0;
    mutable CuckooStats _stats;
};

} // namespace draco

#endif // DRACO_HASH_CUCKOO_HH
