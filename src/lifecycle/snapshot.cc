#include "lifecycle/snapshot.hh"

#include <cstring>

#include "hash/crc64.hh"
#include "support/binio.hh"

namespace draco::lifecycle {

namespace {

/** Set @p error (when asked for) and return false. */
bool
failDecode(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Append one framed block: type, length, payload, trailing CRC. */
void
putBlock(std::vector<uint8_t> &out, BlockType type,
         const std::vector<uint8_t> &payload)
{
    size_t start = out.size();
    binio::putU8(out, static_cast<uint8_t>(type));
    binio::putU32(out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    uint64_t crc = crc64Ecma().compute(out.data() + start,
                                       out.size() - start);
    binio::putU64(out, crc);
}

void
putCheckStats(std::vector<uint8_t> &out, const core::SwCheckStats &s)
{
    binio::putVarint(out, s.checks);
    binio::putVarint(out, s.sptAllowAll);
    binio::putVarint(out, s.vatHits);
    binio::putVarint(out, s.filterRuns);
    binio::putVarint(out, s.denials);
    binio::putVarint(out, s.filterInsns);
    binio::putVarint(out, s.vatInsertions);
}

bool
takeCheckStats(const std::vector<uint8_t> &buf, size_t &pos,
               core::SwCheckStats &s)
{
    return binio::takeVarint(buf, pos, s.checks) &&
        binio::takeVarint(buf, pos, s.sptAllowAll) &&
        binio::takeVarint(buf, pos, s.vatHits) &&
        binio::takeVarint(buf, pos, s.filterRuns) &&
        binio::takeVarint(buf, pos, s.denials) &&
        binio::takeVarint(buf, pos, s.filterInsns) &&
        binio::takeVarint(buf, pos, s.vatInsertions);
}

void
putCuckooStats(std::vector<uint8_t> &out, const CuckooStats &s)
{
    binio::putVarint(out, s.lookups);
    binio::putVarint(out, s.hits);
    binio::putVarint(out, s.insertions);
    binio::putVarint(out, s.displacements);
    binio::putVarint(out, s.evictions);
}

bool
takeCuckooStats(const std::vector<uint8_t> &buf, size_t &pos,
                CuckooStats &s)
{
    return binio::takeVarint(buf, pos, s.lookups) &&
        binio::takeVarint(buf, pos, s.hits) &&
        binio::takeVarint(buf, pos, s.insertions) &&
        binio::takeVarint(buf, pos, s.displacements) &&
        binio::takeVarint(buf, pos, s.evictions);
}

struct MetaFields {
    std::string tenant;
    uint64_t policyKey = 0;
    uint64_t filterCopies = 1;
    core::SwCheckStats stats;
    uint64_t vatEvictions = 0;
    uint64_t tableCount = 0;
};

bool
decodeMeta(const RawBlock &block, MetaFields &meta, std::string *error)
{
    size_t pos = 0;
    if (!binio::takeString(block.payload, pos, meta.tenant) ||
        !binio::takeU64(block.payload, pos, meta.policyKey) ||
        !binio::takeVarint(block.payload, pos, meta.filterCopies) ||
        !takeCheckStats(block.payload, pos, meta.stats) ||
        !binio::takeVarint(block.payload, pos, meta.vatEvictions) ||
        !binio::takeVarint(block.payload, pos, meta.tableCount))
        return failDecode(error, "truncated Meta block");
    if (pos != block.payload.size())
        return failDecode(error, "trailing bytes in Meta block");
    return true;
}

struct TableHeader {
    uint64_t sid = 0;
    uint64_t bitmask = 0;
    uint64_t buckets = 0;
    CuckooStats stats;
    uint64_t entries = 0;
};

bool
decodeTableHeader(const std::vector<uint8_t> &payload, size_t &pos,
                  TableHeader &header, std::string *error)
{
    if (!binio::takeVarint(payload, pos, header.sid) ||
        !binio::takeU64(payload, pos, header.bitmask) ||
        !binio::takeVarint(payload, pos, header.buckets) ||
        !takeCuckooStats(payload, pos, header.stats) ||
        !binio::takeVarint(payload, pos, header.entries))
        return failDecode(error, "truncated Table block header");
    if (header.sid > UINT16_MAX)
        return failDecode(error, "Table sid out of range");
    return true;
}

} // namespace

std::vector<uint8_t>
encodeSnapshot(const std::string &tenant,
               const core::DracoSoftwareChecker &checker,
               unsigned filterCopies)
{
    std::vector<uint8_t> out;
    out.insert(out.end(), kSnapshotMagic,
               kSnapshotMagic + sizeof(kSnapshotMagic));
    binio::putU16(out, kSnapshotVersion);

    const core::Vat &vat = checker.vat();

    std::vector<uint8_t> meta;
    binio::putString(meta, tenant);
    binio::putU64(meta, checker.policy()->programKey);
    binio::putVarint(meta, filterCopies);
    putCheckStats(meta, checker.stats());
    binio::putVarint(meta, vat.evictions());
    binio::putVarint(meta, vat.tableCount());
    putBlock(out, BlockType::Meta, meta);

    uint64_t tables = 0;
    vat.forEachTable([&](uint16_t sid, uint64_t bitmask,
                         const core::VatCuckoo &cuckoo) {
        std::vector<uint8_t> body;
        binio::putVarint(body, sid);
        binio::putU64(body, bitmask);
        binio::putVarint(body, cuckoo.buckets());
        putCuckooStats(body, cuckoo.stats());
        binio::putVarint(body, cuckoo.size());
        cuckoo.forEachSlot([&](CuckooWay way, uint64_t index,
                               const core::ArgKey &key) {
            binio::putU8(body, static_cast<uint8_t>(way));
            binio::putVarint(body, index);
            binio::putU8(body, static_cast<uint8_t>(key.size()));
            body.insert(body.end(), key.data(), key.data() + key.size());
        });
        putBlock(out, BlockType::Table, body);
        ++tables;
    });

    std::vector<uint8_t> end;
    binio::putVarint(end, tables);
    putBlock(out, BlockType::End, end);
    return out;
}

bool
parseSnapshotBlocks(const std::vector<uint8_t> &bytes,
                    std::vector<RawBlock> &blocks, std::string *error)
{
    blocks.clear();
    if (bytes.size() < sizeof(kSnapshotMagic) + 2)
        return failDecode(error, "file shorter than the header");
    if (std::memcmp(bytes.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
        return failDecode(error, "bad magic (not a .dtss snapshot)");
    size_t pos = sizeof(kSnapshotMagic);
    uint16_t version = 0;
    binio::takeU16(bytes, pos, version);
    if (version != kSnapshotVersion)
        return failDecode(error,
                          "unsupported version " + std::to_string(version));

    bool sawEnd = false;
    uint64_t endTables = 0;
    while (pos < bytes.size()) {
        if (sawEnd)
            return failDecode(error, "bytes after the End block");
        size_t blockStart = pos;
        uint8_t type = 0;
        uint32_t len = 0;
        if (!binio::takeU8(bytes, pos, type) ||
            !binio::takeU32(bytes, pos, len))
            return failDecode(error, "truncated block header");
        if (pos + len + 8 > bytes.size())
            return failDecode(error, "truncated block payload");
        uint64_t expect = crc64Ecma().compute(bytes.data() + blockStart,
                                              1 + 4 + len);
        size_t crcPos = pos + len;
        uint64_t stored = 0;
        binio::takeU64(bytes, crcPos, stored);
        if (stored != expect)
            return failDecode(error, "block CRC mismatch");

        RawBlock block;
        block.type = type;
        block.payload.assign(bytes.begin() + pos, bytes.begin() + pos + len);
        pos += len + 8;

        if (type == static_cast<uint8_t>(BlockType::End)) {
            size_t epos = 0;
            if (!binio::takeVarint(block.payload, epos, endTables))
                return failDecode(error, "truncated End block");
            sawEnd = true;
            continue;
        }
        blocks.push_back(std::move(block));
    }
    if (!sawEnd)
        return failDecode(error, "missing End block (truncated file)");

    uint64_t tables = 0;
    for (const RawBlock &block : blocks)
        if (block.type == static_cast<uint8_t>(BlockType::Table))
            ++tables;
    if (tables != endTables)
        return failDecode(error, "End block table count mismatch");
    return true;
}

std::vector<uint8_t>
serializeSnapshotBlocks(const std::vector<RawBlock> &blocks)
{
    std::vector<uint8_t> out;
    out.insert(out.end(), kSnapshotMagic,
               kSnapshotMagic + sizeof(kSnapshotMagic));
    binio::putU16(out, kSnapshotVersion);
    uint64_t tables = 0;
    for (const RawBlock &block : blocks) {
        putBlock(out, static_cast<BlockType>(block.type), block.payload);
        if (block.type == static_cast<uint8_t>(BlockType::Table))
            ++tables;
    }
    std::vector<uint8_t> end;
    binio::putVarint(end, tables);
    putBlock(out, BlockType::End, end);
    return out;
}

bool
inspectSnapshot(const std::vector<uint8_t> &bytes, SnapshotInfo &info,
                std::string *error)
{
    std::vector<RawBlock> blocks;
    if (!parseSnapshotBlocks(bytes, blocks, error))
        return false;
    if (blocks.empty() ||
        blocks.front().type != static_cast<uint8_t>(BlockType::Meta))
        return failDecode(error, "first block is not Meta");

    MetaFields meta;
    if (!decodeMeta(blocks.front(), meta, error))
        return false;

    info = SnapshotInfo{};
    info.tenant = meta.tenant;
    info.policyKey = meta.policyKey;
    info.version = kSnapshotVersion;
    info.filterCopies = static_cast<unsigned>(meta.filterCopies);
    info.stats = meta.stats;
    info.vatEvictions = meta.vatEvictions;
    info.bytes = bytes.size();

    for (size_t i = 1; i < blocks.size(); ++i) {
        const RawBlock &block = blocks[i];
        if (block.type != static_cast<uint8_t>(BlockType::Table))
            return failDecode(error, "unexpected block type " +
                                         std::to_string(block.type));
        size_t pos = 0;
        TableHeader header;
        if (!decodeTableHeader(block.payload, pos, header, error))
            return false;
        SnapshotTableInfo table;
        table.sid = static_cast<uint16_t>(header.sid);
        table.bitmask = header.bitmask;
        table.buckets = header.buckets;
        table.sets = header.entries;
        info.tables.push_back(table);
    }
    if (info.tables.size() != meta.tableCount)
        return failDecode(error, "Meta table count mismatch");
    return true;
}

bool
peekSnapshotPolicyKey(const std::vector<uint8_t> &bytes,
                      uint64_t &policyKey, std::string *error)
{
    // A deliberate partial parse: header plus the first block only.
    // The probe answers "which policy does this snapshot belong to?"
    // without paying for every table's CRC — the full restore (or its
    // fail-closed rejection) still re-verifies everything it uses.
    if (bytes.size() < sizeof(kSnapshotMagic) + 2)
        return failDecode(error, "file shorter than the header");
    if (std::memcmp(bytes.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
        return failDecode(error, "bad magic (not a .dtss snapshot)");
    size_t pos = sizeof(kSnapshotMagic);
    uint16_t version = 0;
    binio::takeU16(bytes, pos, version);
    if (version != kSnapshotVersion)
        return failDecode(error,
                          "unsupported version " + std::to_string(version));

    size_t blockStart = pos;
    uint8_t type = 0;
    uint32_t len = 0;
    if (!binio::takeU8(bytes, pos, type) ||
        !binio::takeU32(bytes, pos, len))
        return failDecode(error, "truncated block header");
    if (type != static_cast<uint8_t>(BlockType::Meta))
        return failDecode(error, "first block is not Meta");
    if (pos + len + 8 > bytes.size())
        return failDecode(error, "truncated block payload");
    uint64_t expect = crc64Ecma().compute(bytes.data() + blockStart,
                                          1 + 4 + len);
    size_t crcPos = pos + len;
    uint64_t stored = 0;
    binio::takeU64(bytes, crcPos, stored);
    if (stored != expect)
        return failDecode(error, "block CRC mismatch");

    RawBlock block;
    block.type = type;
    block.payload.assign(bytes.begin() + pos, bytes.begin() + pos + len);
    MetaFields meta;
    if (!decodeMeta(block, meta, error))
        return false;
    policyKey = meta.policyKey;
    return true;
}

bool
restoreSnapshot(const std::vector<uint8_t> &bytes,
                const std::string &expectTenant, uint64_t expectPolicyKey,
                unsigned expectFilterCopies,
                core::DracoSoftwareChecker &checker, std::string *error)
{
    std::vector<RawBlock> blocks;
    if (!parseSnapshotBlocks(bytes, blocks, error))
        return false;
    if (blocks.empty() ||
        blocks.front().type != static_cast<uint8_t>(BlockType::Meta))
        return failDecode(error, "first block is not Meta");

    MetaFields meta;
    if (!decodeMeta(blocks.front(), meta, error))
        return false;
    if (meta.tenant != expectTenant)
        return failDecode(error, "snapshot names tenant '" + meta.tenant +
                                     "', expected '" + expectTenant + "'");
    if (meta.policyKey != expectPolicyKey)
        return failDecode(error, "policy key mismatch (profile changed "
                                 "since the snapshot was taken)");
    if (meta.filterCopies != expectFilterCopies)
        return failDecode(error, "filter copy count mismatch");
    if (blocks.size() - 1 != meta.tableCount)
        return failDecode(error, "Meta table count mismatch");

    core::Vat &vat = checker.mutableVat();
    for (size_t i = 1; i < blocks.size(); ++i) {
        const RawBlock &block = blocks[i];
        if (block.type != static_cast<uint8_t>(BlockType::Table))
            return failDecode(error, "unexpected block type " +
                                         std::to_string(block.type));
        size_t pos = 0;
        TableHeader header;
        if (!decodeTableHeader(block.payload, pos, header, error))
            return false;
        auto sid = static_cast<uint16_t>(header.sid);

        // The table must exactly match what the shared policy
        // configured — a skewed profile or sizing change invalidates
        // the layout, and a verbatim slot restore into a differently
        // sized table would scatter keys to wrong indices.
        if (!vat.configured(sid))
            return failDecode(error, "snapshot table sid " +
                                         std::to_string(sid) +
                                         " not configured by the policy");
        if (vat.bitmask(sid) != header.bitmask)
            return failDecode(error, "bitmask mismatch for sid " +
                                         std::to_string(sid));
        uint64_t buckets = 0;
        vat.forEachTable([&](uint16_t tsid, uint64_t,
                             const core::VatCuckoo &cuckoo) {
            if (tsid == sid)
                buckets = cuckoo.buckets();
        });
        if (buckets != header.buckets)
            return failDecode(error, "table size mismatch for sid " +
                                         std::to_string(sid));

        for (uint64_t e = 0; e < header.entries; ++e) {
            uint8_t way = 0;
            uint64_t index = 0;
            uint8_t keyLen = 0;
            if (!binio::takeU8(block.payload, pos, way) ||
                !binio::takeVarint(block.payload, pos, index) ||
                !binio::takeU8(block.payload, pos, keyLen))
                return failDecode(error, "truncated Table entry");
            if (way > 1 || keyLen > core::ArgKey::kMaxBytes ||
                pos + keyLen > block.payload.size())
                return failDecode(error, "malformed Table entry");
            core::ArgKey key = core::ArgKey::fromBytes(
                block.payload.data() + pos, keyLen);
            pos += keyLen;
            if (!vat.placeAt(sid, static_cast<CuckooWay>(way), index, key))
                return failDecode(error, "slot placement rejected for sid " +
                                             std::to_string(sid));
        }
        if (pos != block.payload.size())
            return failDecode(error, "trailing bytes in Table block");
        vat.restoreTableStats(sid, header.stats);
    }

    vat.restoreEvictions(meta.vatEvictions);
    checker.restoreStats(meta.stats);
    return true;
}

} // namespace draco::lifecycle
