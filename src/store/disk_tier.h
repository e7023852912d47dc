#ifndef RECSTACK_STORE_DISK_TIER_H_
#define RECSTACK_STORE_DISK_TIER_H_

/**
 * @file
 * Persistent page-based far tier of the embedding store.
 *
 * Production embedding tables outgrow DRAM; the EmbedDB-style answer
 * is a single preallocated file of fixed-size pages, with no dynamic
 * allocation anywhere on the lookup path. DiskTier is that design:
 *
 *  - **Page file layout**: page 0 is the fixed header (four uint64
 *    words: magic, page size, table count, data-page count),
 *    followed by each table's row payloads packed into per-table
 *    data-page regions (rowsPerPage = pageBytes / rowBytes; rows
 *    never span pages), then the per-table records (own pages, so a
 *    model with many tables never outgrows the header).
 *    The file is written once by DiskTier::Builder in ascending key
 *    order and reopened read-write for serving — reopening after a
 *    crash only needs the file (DiskTier::open reads the header and
 *    the records; tests/test_store_disk.cc smoke).
 *  - **Addressing by arithmetic**: a table's rows on disk are one
 *    contiguous range [firstRow, firstRow + coldRows) — the cold
 *    tail [nearRows, rows) EmbeddingStore spills — so a (table, row)
 *    key's page and slot follow from its table record.
 *  - **Reads from the mapping**: the whole file is mmap'ed once and
 *    rowAddress hands out a row's address inside the mapping, so the
 *    kernel page cache backs cold pages and no page is copied into a
 *    user-space pool first. Row writes go through the same mapping.
 *
 * Thread safety: rowAddress is lock-free; it reads only the table
 * records, which are fixed at open. The address it returns stays
 * valid for the tier's lifetime, but its pointee changes under
 * writeRow: reading it needs the lock that serializes writeRow for
 * that row. For EmbeddingStore that is the row's shard lock, which
 * demand reads, warm-ups (EmbeddingStore::warm) and updates all
 * hold, so no reader sees a torn row. An internal mutex, taken after
 * the shard lock, serializes writeRow and the stats.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace recstack {

/** Knobs of one disk tier instance. */
struct DiskTierConfig {
    /// Fixed page size; header, data and record pages all use it. Must
    /// be a power of two >= 512, the page-file format's rule that
    /// DiskTier::open checks in every header it reads.
    size_t pageBytes = 4096;
    /// Keep the page file on destruction (crash/reopen tests); by
    /// default the tier unlinks its file.
    bool keepFile = false;
};

/** Counters of one disk tier (measured, not modeled). */
struct DiskTierStats {
    uint64_t rowWrites = 0;      ///< writeRow calls served
    /// pageHits and pageLoads are always 0: rows are read straight
    /// from the mapping, with no page pool to hit or load. They stay
    /// because perfbench/src/store_disk.cc still reads them.
    uint64_t pageHits = 0;
    uint64_t pageLoads = 0;
    uint64_t numDataPages = 0;
    uint64_t fileBytes = 0;
};

/** One on-disk page store; build with Builder or reopen with open(). */
class DiskTier
{
  public:
    /**
     * Sequential writer of a fresh page file. Tables must be added
     * in ascending table-id order, and each table's rows must be
     * contiguous and ascending — the layout rowAddress's arithmetic
     * requires.
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
        /**
         * Append one cold row: the table's first row, or the row
         * right after the previous one. Panics on a gap, a repeat or
         * a row past the key's 40-bit row field.
         */
        void appendRow(int64_t row, const float* payload);
        /** Finalize records + header and open the tier for serving. */
        std::unique_ptr<DiskTier> finish();

      private:
        struct PendingTable {
            int table = 0;
            int64_t dim = 0;
            uint64_t coldRows = 0;
            uint64_t firstRow = 0;
            uint64_t firstDataPage = 0;
        };

        void flushDataPage();

        std::string path_;
        DiskTierConfig config_;
        int fd_ = -1;
        std::vector<PendingTable> tables_;
        std::vector<uint8_t> pageBuf_;
        size_t pageFill_ = 0;        ///< bytes used in pageBuf_
        uint64_t nextDataPage_ = 0;  ///< relative to data region start
        bool finished_ = false;
    };

    /**
     * Reopen an existing page file (e.g. after a crash). Panics with
     * a diagnostic naming the path and the header field when the page
     * size is not a power of two >= 512 or the data and table pages
     * the header claims do not fit in the file; and naming the path,
     * the table and the record field when a table's rows do not fit
     * a page, its data region leaves the data pages, its row range
     * passes the key's 40-bit row field, or its id repeats an
     * earlier record. A file in another layout (another magic) is
     * rejected as not a recstack page file.
     */
    static std::unique_ptr<DiskTier> open(const std::string& path,
                                          DiskTierConfig config = {});

    ~DiskTier();

    DiskTier(const DiskTier&) = delete;
    DiskTier& operator=(const DiskTier&) = delete;

    /**
     * Address of the payload of (table, row) key in the page file's
     * mapping (tableDim(table) floats), or nullptr when the table is
     * absent or the row lies outside its [firstRow, firstRow +
     * coldRows). Lock-free and allocation-free; reading the pointee
     * needs the lock that serializes writeRow for this row (file
     * comment).
     */
    const float* rowAddress(uint64_t key) const;

    /**
     * Write a row payload through to the file's mapping. Returns
     * false when the key is not stored. Durable w.r.t. reopen after
     * the destructor runs.
     */
    bool writeRow(uint64_t key, const float* src);

    /** Payload width (floats) of a table, or 0 if absent. */
    int64_t tableDim(int table) const;
    /** Count of rows stored for a table. */
    uint64_t tableRows(int table) const;

    const std::string& path() const { return path_; }

    DiskTierStats stats() const;
    void resetStats();

  private:
    struct TableRecord {
        int table = 0;
        int64_t dim = 0;
        uint64_t coldRows = 0;
        uint64_t firstRow = 0;
        uint64_t firstDataPage = 0;  ///< absolute page number
    };

    DiskTier() = default;

    const TableRecord* recordFor(int table) const;
    /// The mapped row of @c key and its byte count; {nullptr, 0} when
    /// absent.
    std::pair<uint8_t*, size_t> locate(uint64_t key) const;

    std::string path_;
    DiskTierConfig config_;
    int fd_ = -1;
    uint8_t* map_ = nullptr;     ///< mmap base of the whole file
    size_t fileBytes_ = 0;
    uint64_t numDataPages_ = 0;

    std::vector<TableRecord> tables_;

    mutable std::mutex mu_;      ///< row writes + stats
    DiskTierStats stats_;

    friend class Builder;
};

}  // namespace recstack

#endif  // RECSTACK_STORE_DISK_TIER_H_
