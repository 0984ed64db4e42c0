#include "core/vat.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "hash/crc64.hh"
#include "support/logging.hh"

namespace draco::core {

namespace {

/**
 * Global bump allocator for table base addresses so that distinct VAT
 * instances (distinct processes) never alias in the cache model.
 */
std::atomic<uint64_t> g_nextVatBase{0x600000000000ULL};

uint64_t
allocateVatRegion(uint64_t bytes)
{
    uint64_t pages = (bytes + 4095) / 4096 * 4096;
    return g_nextVatBase.fetch_add(pages, std::memory_order_relaxed);
}

/** lower_bound order of the sid-sorted table vector. */
constexpr auto kSidBelow = [](const auto &table, uint16_t sid) {
    return table.sid < sid;
};

} // namespace

uint64_t
vatHash(CuckooWay way, const ArgKey &key)
{
    // CRC per the paper (§VII-A), diffused through mix64 so structured
    // argument values index uniformly — see mix64's doc comment.
    const Crc64 &engine =
        way == CuckooWay::H1 ? crc64Ecma() : crc64NotEcma();
    return mix64(engine.compute(key.data(), key.size()));
}

void
Vat::configure(uint16_t sid, uint64_t bitmask, size_t estimated_sets)
{
    if (bitmask == 0)
        fatal("Vat::configure: sid %u has no checked bytes", sid);

    size_t buckets = std::bit_ceil(std::max<size_t>(2, estimated_sets));
    unsigned keyBytes = static_cast<unsigned>(std::popcount(bitmask));
    // One entry: stored key rounded to 8 bytes, plus valid/metadata word.
    size_t entryBytes = ((keyBytes + 7) / 8) * 8 + 8;
    Table table{sid, bitmask, allocateVatRegion(2 * buckets * entryBytes),
                entryBytes, VatCuckoo(buckets)};

    auto it = std::lower_bound(_tables.begin(), _tables.end(), sid,
                               kSidBelow);
    if (it != _tables.end() && it->sid == sid)
        *it = std::move(table);
    else
        _tables.insert(it, std::move(table));
}

const Vat::Table *
Vat::tableFor(uint16_t sid) const
{
    auto it = std::lower_bound(_tables.begin(), _tables.end(), sid,
                               kSidBelow);
    return it != _tables.end() && it->sid == sid ? &*it : nullptr;
}

Vat::Table *
Vat::tableFor(uint16_t sid)
{
    return const_cast<Table *>(std::as_const(*this).tableFor(sid));
}

uint64_t
Vat::Table::address(const VatToken &token) const
{
    uint64_t slot = static_cast<uint64_t>(token.way) * cuckoo.buckets() +
                    cuckoo.indexOf(token.hash);
    return baseAddr + slot * entryBytes;
}

bool
Vat::configured(uint16_t sid) const
{
    return tableFor(sid) != nullptr;
}

uint64_t
Vat::bitmask(uint16_t sid) const
{
    const Table *table = tableFor(sid);
    return table ? table->bitmask : 0;
}

std::optional<VatHit>
Vat::lookup(uint16_t sid, const ArgKey &key) const
{
    const Table *table = tableFor(sid);
    if (!table)
        return std::nullopt;
    auto found = table->cuckoo.lookup(key);
    if (!found)
        return std::nullopt;
    VatHit hit;
    hit.token = VatToken{found->way, found->hash};
    hit.address = table->address(hit.token);
    return hit;
}

bool
Vat::insert(uint16_t sid, const ArgKey &key)
{
    const Table *table = tableFor(sid);
    if (!table)
        panic("Vat::insert: sid %u not configured", sid);
    return insertSlot(static_cast<size_t>(table - _tables.data()), key);
}

bool
Vat::insertSlot(size_t slot, const ArgKey &key)
{
    Table &table = _tables[slot];
    ArgKey victim;
    uint64_t before = table.cuckoo.stats().displacements;
    auto result = table.cuckoo.insert(key, &victim);
    if (_tracer) {
        _tracer->record(obs::EventKind::VatInsert, table.sid, 0, 0,
                        table.cuckoo.stats().displacements - before);
    }
    if (result == CuckooInsert::EvictedVictim) {
        ++_evictions;
        if (_tracer)
            _tracer->record(obs::EventKind::VatEvict, table.sid);
        return true;
    }
    return false;
}

bool
Vat::placeAt(uint16_t sid, CuckooWay way, uint64_t index,
             const ArgKey &key)
{
    Table *table = tableFor(sid);
    return table && table->cuckoo.placeAt(way, index, key);
}

bool
Vat::restoreTableStats(uint16_t sid, const CuckooStats &stats)
{
    Table *table = tableFor(sid);
    if (!table)
        return false;
    table->cuckoo.restoreStats(stats);
    return true;
}

bool
Vat::erase(uint16_t sid, const ArgKey &key)
{
    Table *table = tableFor(sid);
    return table && table->cuckoo.erase(key);
}

std::optional<ArgKey>
Vat::slotContents(uint16_t sid, const VatToken &token) const
{
    const Table *table = tableFor(sid);
    if (!table)
        return std::nullopt;
    const ArgKey *stored = table->cuckoo.at(token.way, token.hash);
    if (!stored)
        return std::nullopt;
    return *stored;
}

uint64_t
Vat::entryAddress(uint16_t sid, const VatToken &token) const
{
    const Table *table = tableFor(sid);
    if (!table)
        panic("Vat::entryAddress: sid %u not configured", sid);
    return table->address(token);
}

size_t
Vat::footprintBytes() const
{
    size_t total = 0;
    for (const Table &table : _tables)
        total += table.cuckoo.capacity() * table.entryBytes;
    return total;
}

size_t
Vat::setCount(uint16_t sid) const
{
    const Table *table = tableFor(sid);
    return table ? table->cuckoo.size() : 0;
}

void
Vat::exportMetrics(MetricRegistry &registry,
                   const std::string &prefix) const
{
    CuckooStats total;
    size_t sets = 0;
    size_t capacity = 0;
    for (const Table &table : _tables) {
        const CuckooStats &s = table.cuckoo.stats();
        total.lookups += s.lookups;
        total.hits += s.hits;
        total.insertions += s.insertions;
        total.displacements += s.displacements;
        total.evictions += s.evictions;
        sets += table.cuckoo.size();
        capacity += table.cuckoo.capacity();
    }

    auto name = [&](const char *metric) {
        return MetricRegistry::join(prefix, metric);
    };
    registry.setCounter(name("tables"), _tables.size());
    registry.setCounter(name("sets"), sets);
    registry.setCounter(name("capacity"), capacity);
    registry.setCounter(name("footprint_bytes"), footprintBytes());
    registry.setCounter(name("lookups"), total.lookups);
    registry.setCounter(name("hits"), total.hits);
    registry.setCounter(name("insertions"), total.insertions);
    registry.setCounter(name("displacements"), total.displacements);
    registry.setCounter(name("cuckoo_evictions"), total.evictions);
    registry.setCounter(name("evictions"), _evictions);
    registry.setGauge(name("hit_rate"),
                      total.lookups
                          ? static_cast<double>(total.hits) /
                              static_cast<double>(total.lookups)
                          : 0.0);
}

} // namespace draco::core
