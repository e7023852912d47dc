#ifndef RECSTACK_STORE_DISK_TIER_H_
#define RECSTACK_STORE_DISK_TIER_H_

/**
 * @file
 * Persistent page-based far tier of the embedding store.
 *
 * Production embedding tables outgrow DRAM; the EmbedDB-style answer
 * is a single preallocated file of fixed-size pages and a learned
 * index locating a key's page — no dynamic allocation anywhere on the
 * lookup path. DiskTier is that design:
 *
 *  - **Page file layout**: page 0 is the fixed header (five uint64
 *    words: magic, page size, table count, key count, data-page
 *    count), followed by each table's row payloads packed into
 *    per-table data-page regions (rowsPerPage = pageBytes /
 *    rowBytes; rows never span pages), then the sorted
 *    64-bit (table, row) key array packed into key pages, then the
 *    per-table records (own pages, so a model with many tables never
 *    outgrows the header).
 *    The file is written once by DiskTier::Builder in ascending key
 *    order and reopened read-write for serving — reopening after a
 *    crash only needs the file (DiskTier::open rebuilds the spline
 *    from the persisted keys; tests/test_store_disk.cc smoke).
 *  - **Learned index**: a radix-spline (store/spline_index.h) maps a
 *    key to its global ordinal, which per-table records turn into
 *    (page, slot). A binary-search reference path is always
 *    available (readRowBinarySearch) and is verified equivalent.
 *  - **Reads from the mapping**: the whole file is mmap'ed once; a
 *    row read copies the row's bytes straight out of the mapping, so
 *    the kernel page cache backs cold pages and no page is copied
 *    into a user-space pool first. Row writes go through the same
 *    mapping.
 *
 * Thread safety: one internal mutex serializes row reads, row writes
 * and stats; EmbeddingStore shards acquire it after their own shard
 * lock (strict shard → tier order, no inverse). A row's readers and
 * its writer hold the same shard lock, so no reader sees a torn row.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/spline_index.h"

namespace recstack {

/** Knobs of one disk tier instance. */
struct DiskTierConfig {
    /// Fixed page size; header, key and data pages all use it. Must
    /// be a power of two >= 512, the page-file format's rule that
    /// DiskTier::open checks in every header it reads.
    size_t pageBytes = 4096;
    /// Keep the page file on destruction (crash/reopen tests); by
    /// default the tier unlinks its file.
    bool keepFile = false;
    /// Learned-index build knobs.
    SplineIndexConfig spline;
};

/** Counters of one disk tier (measured, not modeled). */
struct DiskTierStats {
    uint64_t rowReads = 0;       ///< readRow calls served
    uint64_t rowWrites = 0;      ///< writeRow calls served
    uint64_t bytesRead = 0;      ///< payload bytes returned
    /// pageHits and pageLoads are always 0: rows are read straight
    /// from the mapping, with no page pool to hit or load. They stay
    /// because perfbench/src/store_disk.cc still reads them.
    uint64_t pageHits = 0;
    uint64_t pageLoads = 0;
    uint64_t numDataPages = 0;
    uint64_t fileBytes = 0;
    SplineIndexStats spline;
};

/** One on-disk page store; build with Builder or reopen with open(). */
class DiskTier
{
  public:
    /**
     * Sequential writer of a fresh page file. Tables must be added
     * in ascending table-id order and rows in ascending row order,
     * which makes the global (table, row) key stream sorted — the
     * layout the spline index and the page regions require.
     */
    class Builder
    {
      public:
        Builder(std::string path, DiskTierConfig config = {});
        ~Builder();

        Builder(const Builder&) = delete;
        Builder& operator=(const Builder&) = delete;

        /** Open a region for `table`'s cold rows of width dim. */
        void beginTable(int table, int64_t dim);
        /** Append one cold row (ascending within the table). */
        void appendRow(int64_t row, const float* payload);
        /** Finalize header + index and open the tier for serving. */
        std::unique_ptr<DiskTier> finish();

      private:
        struct PendingTable {
            int table = 0;
            int64_t dim = 0;
            uint64_t coldRows = 0;
            uint64_t firstKeyIndex = 0;
            uint64_t firstDataPage = 0;
        };

        void flushDataPage();

        std::string path_;
        DiskTierConfig config_;
        int fd_ = -1;
        std::vector<PendingTable> tables_;
        std::vector<uint64_t> keys_;
        std::vector<uint8_t> pageBuf_;
        size_t pageFill_ = 0;        ///< bytes used in pageBuf_
        uint64_t nextDataPage_ = 0;  ///< relative to data region start
        bool finished_ = false;
    };

    /**
     * Reopen an existing page file (e.g. after a crash). Panics with
     * a diagnostic naming the path and the header field when the page
     * size is not a power of two >= 512 or the data, key and table
     * pages the header claims do not fit in the file; and naming the path, the table and the record field
     * when a table's rows do not fit a page, its data region leaves
     * the data pages, its key range leaves the key array, or its id
     * repeats an earlier record.
     */
    static std::unique_ptr<DiskTier> open(const std::string& path,
                                          DiskTierConfig config = {});

    ~DiskTier();

    DiskTier(const DiskTier&) = delete;
    DiskTier& operator=(const DiskTier&) = delete;

    /**
     * Copy the payload of (table, row) key into dst (rowBytes(key's
     * table) bytes). Returns false when the key is not stored. No
     * heap allocation; the bytes come straight from the mapping.
     */
    bool readRow(uint64_t key, float* dst);

    /** readRow through the binary-search reference index. */
    bool readRowBinarySearch(uint64_t key, float* dst);

    /**
     * Write a row payload through to the file's mapping. Returns
     * false when the key is not stored. Durable w.r.t. reopen after
     * the destructor runs.
     */
    bool writeRow(uint64_t key, const float* src);

    bool contains(uint64_t key) const;
    /** Payload width (floats) of a table, or 0 if absent. */
    int64_t tableDim(int table) const;
    /** Count of rows stored for a table. */
    uint64_t tableRows(int table) const;

    const SplineIndex& index() const { return *index_; }
    const std::string& path() const { return path_; }

    DiskTierStats stats() const;
    void resetStats();

  private:
    struct TableRecord {
        int table = 0;
        int64_t dim = 0;
        uint64_t coldRows = 0;
        uint64_t firstKeyIndex = 0;
        uint64_t firstDataPage = 0;  ///< absolute page number
    };

    DiskTier() = default;

    /// Where a stored row lives: page, byte offset in it, row bytes.
    struct RowLocation {
        uint64_t page = 0;
        size_t offset = 0;
        size_t bytes = 0;
    };

    const TableRecord* recordFor(uint64_t key, size_t ordinal) const;
    /// The row of the key at spline @c ordinal; nullopt when absent.
    std::optional<RowLocation> locate(uint64_t key, size_t ordinal) const;
    bool readRowIndexed(uint64_t key, size_t ordinal, float* dst);

    std::string path_;
    DiskTierConfig config_;
    int fd_ = -1;
    uint8_t* map_ = nullptr;     ///< mmap base of the whole file
    size_t fileBytes_ = 0;
    uint64_t numDataPages_ = 0;

    std::vector<TableRecord> tables_;
    std::unique_ptr<SplineIndex> index_;

    mutable std::mutex mu_;      ///< row reads, row writes + stats
    DiskTierStats stats_;

    friend class Builder;
};

}  // namespace recstack

#endif  // RECSTACK_STORE_DISK_TIER_H_
