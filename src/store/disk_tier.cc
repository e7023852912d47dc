#include "store/disk_tier.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "common/logging.h"

namespace recstack {
namespace {

constexpr uint64_t kMagic = 0x52535432'50414745ull;  // "RST2PAGE"

/// A (table, row) key holds the row in its low 40 bits.
constexpr int kRowBits = 40;
constexpr uint64_t kRowLimit = uint64_t{1} << kRowBits;

/** Fixed-width header fields at the start of page 0. */
struct FileHeader {
    uint64_t magic = kMagic;
    uint64_t pageBytes = 0;
    uint64_t numTables = 0;
    uint64_t numDataPages = 0;
};

/** Per-table record, on the pages after the data pages. */
struct FileTableRecord {
    int64_t table = 0;
    int64_t dim = 0;
    uint64_t coldRows = 0;
    uint64_t firstRow = 0;
    uint64_t firstDataPage = 0;
};

void
pwriteAll(int fd, const void* buf, size_t n, off_t off)
{
    const uint8_t* p = static_cast<const uint8_t*>(buf);
    while (n > 0) {
        const ssize_t w = ::pwrite(fd, p, n, off);
        RECSTACK_CHECK(w > 0, "disk tier pwrite failed (errno "
                                  << errno << ")");
        p += w;
        off += w;
        n -= static_cast<size_t>(w);
    }
}

void
preadAll(int fd, void* buf, size_t n, off_t off)
{
    uint8_t* p = static_cast<uint8_t*>(buf);
    while (n > 0) {
        const ssize_t r = ::pread(fd, p, n, off);
        RECSTACK_CHECK(r > 0, "disk tier pread failed (errno "
                                  << errno << ")");
        p += r;
        off += r;
        n -= static_cast<size_t>(r);
    }
}

}  // namespace

// --- Builder ----------------------------------------------------------

DiskTier::Builder::Builder(std::string path, DiskTierConfig config)
    : path_(std::move(path)), config_(config)
{
    RECSTACK_CHECK(config_.pageBytes >= 512 &&
                       (config_.pageBytes &
                        (config_.pageBytes - 1)) == 0,
                   "disk tier pageBytes must be a power of two >= 512");
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    RECSTACK_CHECK(fd_ >= 0, "cannot create disk tier file '"
                                 << path_ << "' (errno " << errno
                                 << ")");
    pageBuf_.assign(config_.pageBytes, 0);
}

DiskTier::Builder::~Builder()
{
    if (fd_ >= 0) {
        ::close(fd_);
        if (!finished_) {
            ::unlink(path_.c_str());  // abandoned build
        }
    }
}

void
DiskTier::Builder::beginTable(int table, int64_t dim)
{
    RECSTACK_CHECK(!finished_, "builder already finished");
    RECSTACK_CHECK(dim > 0, "table dim must be positive");
    RECSTACK_CHECK(static_cast<size_t>(dim) * sizeof(float) <=
                       config_.pageBytes,
                   "row payload (" << dim * 4
                                   << " B) exceeds the page size");
    RECSTACK_CHECK(tables_.empty() || tables_.back().table < table,
                   "tables must be added in ascending id order");
    flushDataPage();
    PendingTable t;
    t.table = table;
    t.dim = dim;
    t.firstDataPage = nextDataPage_;
    tables_.push_back(t);
}

void
DiskTier::Builder::appendRow(int64_t row, const float* payload)
{
    RECSTACK_CHECK(!tables_.empty(), "beginTable before appendRow");
    PendingTable& t = tables_.back();
    RECSTACK_CHECK(row >= 0 && static_cast<uint64_t>(row) < kRowLimit,
                   "table " << t.table << ": row " << row
                            << " does not fit the key's " << kRowBits
                            << "-bit row field");
    if (t.coldRows == 0) {
        t.firstRow = static_cast<uint64_t>(row);
    }
    RECSTACK_CHECK(static_cast<uint64_t>(row) == t.firstRow + t.coldRows,
                   "table " << t.table << ": row " << row
                            << " does not follow row "
                            << t.firstRow + t.coldRows - 1
                            << "; a table's rows must be contiguous "
                               "and ascending");
    const size_t row_bytes =
        static_cast<size_t>(t.dim) * sizeof(float);
    if (pageFill_ + row_bytes > config_.pageBytes) {
        flushDataPage();
    }
    std::memcpy(pageBuf_.data() + pageFill_, payload, row_bytes);
    pageFill_ += row_bytes;
    ++t.coldRows;
}

void
DiskTier::Builder::flushDataPage()
{
    if (pageFill_ == 0) {
        return;
    }
    std::memset(pageBuf_.data() + pageFill_, 0,
                config_.pageBytes - pageFill_);
    pwriteAll(fd_, pageBuf_.data(), config_.pageBytes,
              static_cast<off_t>((1 + nextDataPage_) *
                                 config_.pageBytes));
    ++nextDataPage_;
    pageFill_ = 0;
}

std::unique_ptr<DiskTier>
DiskTier::Builder::finish()
{
    RECSTACK_CHECK(!finished_, "builder already finished");
    flushDataPage();

    // Table records trail the data pages (their count is only known
    // now, and a wide model can hold more tables than one page fits).
    const size_t pb = config_.pageBytes;
    std::vector<FileTableRecord> recs(tables_.size());
    for (size_t i = 0; i < tables_.size(); ++i) {
        recs[i].table = tables_[i].table;
        recs[i].dim = tables_[i].dim;
        recs[i].coldRows = tables_[i].coldRows;
        recs[i].firstRow = tables_[i].firstRow;
        recs[i].firstDataPage = 1 + tables_[i].firstDataPage;
    }
    const size_t rec_bytes = recs.size() * sizeof(FileTableRecord);
    const uint64_t rec_pages = (rec_bytes + pb - 1) / pb;
    if (rec_pages > 0) {
        std::vector<uint8_t> rec_buf(rec_pages * pb, 0);
        std::memcpy(rec_buf.data(), recs.data(), rec_bytes);
        pwriteAll(fd_, rec_buf.data(), rec_pages * pb,
                  static_cast<off_t>((1 + nextDataPage_) * pb));
    }

    // Header page last: a torn build leaves an invalid magic.
    FileHeader hdr;
    hdr.pageBytes = pb;
    hdr.numTables = tables_.size();
    hdr.numDataPages = nextDataPage_;
    std::memset(pageBuf_.data(), 0, pb);
    std::memcpy(pageBuf_.data(), &hdr, sizeof(hdr));
    pwriteAll(fd_, pageBuf_.data(), pb, 0);
    RECSTACK_CHECK(::fsync(fd_) == 0, "disk tier fsync failed");
    ::close(fd_);
    fd_ = -1;
    finished_ = true;
    return DiskTier::open(path_, config_);
}

// --- DiskTier ---------------------------------------------------------

std::unique_ptr<DiskTier>
DiskTier::open(const std::string& path, DiskTierConfig config)
{
    auto tier = std::unique_ptr<DiskTier>(new DiskTier());
    tier->path_ = path;
    tier->config_ = config;

    tier->fd_ = ::open(path.c_str(), O_RDWR);
    RECSTACK_CHECK(tier->fd_ >= 0, "cannot open disk tier file '"
                                       << path << "' (errno " << errno
                                       << ")");
    struct stat st;
    RECSTACK_CHECK(::fstat(tier->fd_, &st) == 0,
                   "disk tier fstat failed");
    tier->fileBytes_ = static_cast<size_t>(st.st_size);
    RECSTACK_CHECK(tier->fileBytes_ >= sizeof(FileHeader),
                   "'" << path << "' is too short for a page-file header");
    FileHeader hdr;
    preadAll(tier->fd_, &hdr, sizeof(hdr), 0);
    RECSTACK_CHECK(hdr.magic == kMagic,
                   "'" << path << "' is not a recstack page file");

    // Bound every header count by the file size before it sizes a
    // vector or a read: header page, data pages, then the table
    // records.
    const uint64_t pb = hdr.pageBytes;
    RECSTACK_CHECK(pb >= 512 && (pb & (pb - 1)) == 0,
                   "'" << path << "' header: pageBytes " << pb
                       << " is not a power of two >= 512");
    const uint64_t file_pages = tier->fileBytes_ / pb;
    RECSTACK_CHECK(hdr.numDataPages < file_pages,
                   "'" << path << "' header: numDataPages "
                       << hdr.numDataPages << " exceeds the file's "
                       << file_pages << " pages");
    const uint64_t tail_bytes = (file_pages - 1 - hdr.numDataPages) * pb;
    RECSTACK_CHECK(hdr.numTables <= tail_bytes / sizeof(FileTableRecord),
                   "'" << path << "' header: numTables " << hdr.numTables
                       << " does not fit in the file");
    tier->config_.pageBytes = pb;
    tier->numDataPages_ = hdr.numDataPages;

    // Table records trail the data pages.
    std::vector<FileTableRecord> recs(hdr.numTables);
    if (hdr.numTables > 0) {
        preadAll(tier->fd_, recs.data(),
                 hdr.numTables * sizeof(FileTableRecord),
                 static_cast<off_t>((1 + hdr.numDataPages) * pb));
    }
    // Check each record against the header before a read trusts it:
    // its rows must fit a page, its data region must lie inside the
    // data pages, and its row range inside the key's row field.
    const uint64_t data_end = 1 + hdr.numDataPages;
    tier->tables_.reserve(hdr.numTables);
    for (const FileTableRecord& rec : recs) {
        const auto where = [&] {
            return "'" + path + "' table " + std::to_string(rec.table) +
                   ": ";
        };
        RECSTACK_CHECK(rec.dim > 0 && static_cast<uint64_t>(rec.dim) <=
                                          pb / sizeof(float),
                       where() << "dim " << rec.dim << " does not fit a "
                               << pb << "-byte page");
        RECSTACK_CHECK(rec.firstDataPage >= 1 &&
                           rec.firstDataPage <= data_end,
                       where() << "firstDataPage " << rec.firstDataPage
                               << " is outside the data pages [1, "
                               << data_end << "]");
        const uint64_t rows_per_page =
            pb / (static_cast<uint64_t>(rec.dim) * sizeof(float));
        const uint64_t pages = rec.coldRows / rows_per_page +
                               (rec.coldRows % rows_per_page != 0);
        RECSTACK_CHECK(pages <= data_end - rec.firstDataPage,
                       where() << "coldRows " << rec.coldRows
                               << " from firstDataPage "
                               << rec.firstDataPage << " overrun the "
                               << hdr.numDataPages << " data pages");
        RECSTACK_CHECK(rec.firstRow <= kRowLimit &&
                           rec.coldRows <= kRowLimit - rec.firstRow,
                       where() << "firstRow " << rec.firstRow
                               << " + coldRows " << rec.coldRows
                               << " passes the key's " << kRowBits
                               << "-bit row field");
        for (const TableRecord& seen : tier->tables_) {
            RECSTACK_CHECK(seen.table != static_cast<int>(rec.table),
                           where() << "table id repeats an earlier record");
        }
        TableRecord t;
        t.table = static_cast<int>(rec.table);
        t.dim = rec.dim;
        t.coldRows = rec.coldRows;
        t.firstRow = rec.firstRow;
        t.firstDataPage = rec.firstDataPage;
        tier->tables_.push_back(t);
    }

    void* m = ::mmap(nullptr, tier->fileBytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED, tier->fd_, 0);
    RECSTACK_CHECK(m != MAP_FAILED, "disk tier mmap failed (errno "
                                        << errno << ")");
    tier->map_ = static_cast<uint8_t*>(m);
    return tier;
}

DiskTier::~DiskTier()
{
    if (map_ != nullptr) {
        ::msync(map_, fileBytes_, MS_SYNC);
        ::munmap(map_, fileBytes_);
    }
    if (fd_ >= 0) {
        ::close(fd_);
    }
    if (!config_.keepFile && !path_.empty()) {
        ::unlink(path_.c_str());
    }
}

const DiskTier::TableRecord*
DiskTier::recordFor(int table) const
{
    for (const TableRecord& t : tables_) {
        if (t.table == table) {
            return &t;
        }
    }
    return nullptr;
}

std::pair<uint8_t*, size_t>
DiskTier::locate(uint64_t key) const
{
    const TableRecord* rec = recordFor(static_cast<int>(key >> kRowBits));
    const uint64_t row = key & (kRowLimit - 1);
    if (rec == nullptr || row < rec->firstRow ||
        row - rec->firstRow >= rec->coldRows) {
        return {nullptr, 0};
    }
    const size_t row_bytes =
        static_cast<size_t>(rec->dim) * sizeof(float);
    const uint64_t rows_per_page = config_.pageBytes / row_bytes;
    const uint64_t k = row - rec->firstRow;
    const uint64_t page = rec->firstDataPage + k / rows_per_page;
    return {map_ + page * config_.pageBytes +
                static_cast<size_t>(k % rows_per_page) * row_bytes,
            row_bytes};
}

const float*
DiskTier::rowAddress(uint64_t key) const
{
    // Rows never span pages and row bytes are whole floats, so the
    // address is float-aligned.
    return reinterpret_cast<const float*>(locate(key).first);
}

bool
DiskTier::writeRow(uint64_t key, const float* src)
{
    const auto [dst, bytes] = locate(key);
    if (dst == nullptr) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::memcpy(dst, src, bytes);
    ++stats_.rowWrites;
    return true;
}

int64_t
DiskTier::tableDim(int table) const
{
    const TableRecord* t = recordFor(table);
    return t != nullptr ? t->dim : 0;
}

uint64_t
DiskTier::tableRows(int table) const
{
    const TableRecord* t = recordFor(table);
    return t != nullptr ? t->coldRows : 0;
}

DiskTierStats
DiskTier::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    DiskTierStats s = stats_;
    s.numDataPages = numDataPages_;
    s.fileBytes = fileBytes_;
    return s;
}

void
DiskTier::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DiskTierStats{};
}

}  // namespace recstack
