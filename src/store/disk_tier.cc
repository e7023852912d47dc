#include "store/disk_tier.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"

namespace recstack {
namespace {

constexpr uint64_t kMagic = 0x52535431'50414745ull;  // "RST1PAGE"
constexpr uint64_t kEmptyFrame = UINT64_MAX;

/** Fixed-width header fields at the start of page 0. */
struct FileHeader {
    uint64_t magic = kMagic;
    uint64_t pageBytes = 0;
    uint64_t numTables = 0;
    uint64_t numKeys = 0;
    uint64_t numDataPages = 0;
};

/** Per-table record serialized right after the header fields. */
struct FileTableRecord {
    int64_t table = 0;
    int64_t dim = 0;
    uint64_t coldRows = 0;
    uint64_t firstKeyIndex = 0;
    uint64_t firstDataPage = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

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
    t.firstKeyIndex = keys_.size();
    t.firstDataPage = nextDataPage_;
    tables_.push_back(t);
}

void
DiskTier::Builder::appendRow(int64_t row, const float* payload)
{
    RECSTACK_CHECK(!tables_.empty(), "beginTable before appendRow");
    PendingTable& t = tables_.back();
    const uint64_t key =
        (static_cast<uint64_t>(t.table) << 40) |
        static_cast<uint64_t>(row);
    RECSTACK_CHECK(keys_.empty() || keys_.back() < key,
                   "rows must be appended in ascending key order");
    const size_t row_bytes =
        static_cast<size_t>(t.dim) * sizeof(float);
    if (pageFill_ + row_bytes > config_.pageBytes) {
        flushDataPage();
    }
    std::memcpy(pageBuf_.data() + pageFill_, payload, row_bytes);
    pageFill_ += row_bytes;
    keys_.push_back(key);
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

    // Key pages land after the data region.
    const size_t pb = config_.pageBytes;
    const uint64_t key_pages =
        (keys_.size() * sizeof(uint64_t) + pb - 1) / pb;
    for (uint64_t kp = 0; kp < key_pages; ++kp) {
        std::memset(pageBuf_.data(), 0, pb);
        const size_t first = kp * (pb / sizeof(uint64_t));
        const size_t count = std::min(
            pb / sizeof(uint64_t), keys_.size() - first);
        std::memcpy(pageBuf_.data(), keys_.data() + first,
                    count * sizeof(uint64_t));
        pwriteAll(fd_, pageBuf_.data(), pb,
                  static_cast<off_t>((1 + nextDataPage_ + kp) * pb));
    }

    // Table records trail the keys (their count is only known now,
    // and a wide model can hold more tables than one page fits).
    std::vector<FileTableRecord> recs(tables_.size());
    for (size_t i = 0; i < tables_.size(); ++i) {
        recs[i].table = tables_[i].table;
        recs[i].dim = tables_[i].dim;
        recs[i].coldRows = tables_[i].coldRows;
        recs[i].firstKeyIndex = tables_[i].firstKeyIndex;
        recs[i].firstDataPage = 1 + tables_[i].firstDataPage;
    }
    const size_t rec_bytes = recs.size() * sizeof(FileTableRecord);
    const uint64_t rec_pages = (rec_bytes + pb - 1) / pb;
    if (rec_pages > 0) {
        std::vector<uint8_t> rec_buf(rec_pages * pb, 0);
        std::memcpy(rec_buf.data(), recs.data(), rec_bytes);
        pwriteAll(fd_, rec_buf.data(), rec_pages * pb,
                  static_cast<off_t>(
                      (1 + nextDataPage_ + key_pages) * pb));
    }

    // Header page last: a torn build leaves an invalid magic.
    FileHeader hdr;
    hdr.pageBytes = pb;
    hdr.numTables = tables_.size();
    hdr.numKeys = keys_.size();
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
    RECSTACK_CHECK(config.bufferPages >= 1,
                   "disk tier needs at least one buffer page");
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
    // vector or a read: header page, data pages, key pages, then the
    // table records.
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
    RECSTACK_CHECK(hdr.numKeys <= tail_bytes / sizeof(uint64_t),
                   "'" << path << "' header: numKeys " << hdr.numKeys
                       << " does not fit in the file");
    const uint64_t key_pages =
        (hdr.numKeys * sizeof(uint64_t) + pb - 1) / pb;
    RECSTACK_CHECK(hdr.numTables <= (tail_bytes - key_pages * pb) /
                                        sizeof(FileTableRecord),
                   "'" << path << "' header: numTables " << hdr.numTables
                       << " does not fit in the file");
    tier->config_.pageBytes = pb;
    tier->numDataPages_ = hdr.numDataPages;

    // Persisted key array -> learned index rebuilt on every open.
    std::vector<uint64_t> keys(hdr.numKeys);
    if (hdr.numKeys > 0) {
        preadAll(tier->fd_, keys.data(),
                 hdr.numKeys * sizeof(uint64_t),
                 static_cast<off_t>((1 + hdr.numDataPages) * pb));
    }

    // Table records trail the key pages.
    std::vector<FileTableRecord> recs(hdr.numTables);
    if (hdr.numTables > 0) {
        preadAll(tier->fd_, recs.data(),
                 hdr.numTables * sizeof(FileTableRecord),
                 static_cast<off_t>(
                     (1 + hdr.numDataPages + key_pages) * pb));
    }
    // Check each record against the header before a read trusts it:
    // its rows must fit a page, its data region must lie inside the
    // data pages, and its key range inside the key array.
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
        RECSTACK_CHECK(rec.coldRows <= hdr.numKeys &&
                           rec.firstKeyIndex <=
                               hdr.numKeys - rec.coldRows,
                       where() << "firstKeyIndex " << rec.firstKeyIndex
                               << " + coldRows " << rec.coldRows
                               << " exceeds numKeys " << hdr.numKeys);
        for (const TableRecord& seen : tier->tables_) {
            RECSTACK_CHECK(seen.table != static_cast<int>(rec.table),
                           where() << "table id repeats an earlier record");
        }
        TableRecord t;
        t.table = static_cast<int>(rec.table);
        t.dim = rec.dim;
        t.coldRows = rec.coldRows;
        t.firstKeyIndex = rec.firstKeyIndex;
        t.firstDataPage = rec.firstDataPage;
        tier->tables_.push_back(t);
    }
    tier->index_ = std::make_unique<SplineIndex>(
        std::move(keys), tier->config_.spline);

    void* m = ::mmap(nullptr, tier->fileBytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED, tier->fd_, 0);
    RECSTACK_CHECK(m != MAP_FAILED, "disk tier mmap failed (errno "
                                        << errno << ")");
    tier->map_ = static_cast<uint8_t*>(m);
    tier->setupPool();
    return tier;
}

void
DiskTier::setupPool()
{
    const size_t bytes = config_.bufferPages * config_.pageBytes;
    void* p = nullptr;
    RECSTACK_CHECK(::posix_memalign(&p, 4096, bytes) == 0,
                   "disk tier buffer pool allocation failed");
    pool_ = static_cast<uint8_t*>(p);
    frames_.assign(config_.bufferPages, Frame{});
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
    std::free(pool_);
    if (!config_.keepFile && !path_.empty()) {
        ::unlink(path_.c_str());
    }
}

const DiskTier::TableRecord*
DiskTier::recordFor(uint64_t key, size_t ordinal) const
{
    const int table = static_cast<int>(key >> 40);
    for (const TableRecord& t : tables_) {
        if (t.table == table) {
            RECSTACK_CHECK(ordinal >= t.firstKeyIndex &&
                               ordinal <
                                   t.firstKeyIndex + t.coldRows,
                           "spline ordinal " << ordinal
                                             << " outside table "
                                             << table << " region");
            return &t;
        }
    }
    return nullptr;
}

void
DiskTier::loadPageLocked(uint64_t page, uint8_t* frame)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::memcpy(frame, map_ + page * config_.pageBytes, config_.pageBytes);
    stats_.readSeconds += secondsSince(t0);
    ++stats_.pageLoads;
}

size_t
DiskTier::fetchPageLocked(uint64_t page)
{
    // The pool is small by design (tens of frames), so a linear scan
    // beats a heap-allocated map and keeps this path allocation-free.
    for (size_t i = 0; i < frames_.size(); ++i) {
        if (frames_[i].page == page) {
            frames_[i].referenced = true;
            ++stats_.pageHits;
            return i;
        }
    }
    // CLOCK second chance over the frame ring.
    for (;;) {
        Frame& f = frames_[clockHand_];
        if (f.page == kEmptyFrame || !f.referenced) {
            const size_t idx = clockHand_;
            clockHand_ = (clockHand_ + 1) % frames_.size();
            if (f.page != kEmptyFrame) {
                ++stats_.pageEvictions;
            }
            loadPageLocked(page, pool_ + idx * config_.pageBytes);
            f.page = page;
            f.referenced = true;
            return idx;
        }
        f.referenced = false;
        clockHand_ = (clockHand_ + 1) % frames_.size();
    }
}

std::optional<DiskTier::RowLocation>
DiskTier::locate(uint64_t key, size_t ordinal) const
{
    if (ordinal == SplineIndex::kNotFound) {
        return std::nullopt;
    }
    const TableRecord* rec = recordFor(key, ordinal);
    if (rec == nullptr) {
        return std::nullopt;
    }
    const size_t row_bytes =
        static_cast<size_t>(rec->dim) * sizeof(float);
    const uint64_t rows_per_page = config_.pageBytes / row_bytes;
    const uint64_t k = ordinal - rec->firstKeyIndex;
    return RowLocation{rec->firstDataPage + k / rows_per_page,
                       static_cast<size_t>(k % rows_per_page) * row_bytes,
                       row_bytes};
}

bool
DiskTier::readRowIndexed(uint64_t key, size_t ordinal, float* dst)
{
    const std::optional<RowLocation> loc = locate(key, ordinal);
    if (!loc) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const size_t frame = fetchPageLocked(loc->page);
    std::memcpy(dst, pool_ + frame * config_.pageBytes + loc->offset,
                loc->bytes);
    ++stats_.rowReads;
    stats_.bytesRead += loc->bytes;
    return true;
}

bool
DiskTier::readRow(uint64_t key, float* dst)
{
    return readRowIndexed(key, index_->find(key), dst);
}

bool
DiskTier::readRowBinarySearch(uint64_t key, float* dst)
{
    return readRowIndexed(key, index_->findBinarySearch(key), dst);
}

bool
DiskTier::writeRow(uint64_t key, const float* src)
{
    const std::optional<RowLocation> loc = locate(key, index_->find(key));
    if (!loc) {
        return false;
    }
    const uint64_t page = loc->page;
    std::lock_guard<std::mutex> lock(mu_);
    std::memcpy(map_ + page * config_.pageBytes + loc->offset, src,
                loc->bytes);
    // Refresh any pooled copy so readers never see the old page.
    for (Frame& f : frames_) {
        if (f.page == page) {
            std::memcpy(pool_ + (&f - frames_.data()) * config_.pageBytes +
                            loc->offset,
                        src, loc->bytes);
        }
    }
    ++stats_.rowWrites;
    return true;
}

bool
DiskTier::contains(uint64_t key) const
{
    return index_->find(key) != SplineIndex::kNotFound;
}

int64_t
DiskTier::tableDim(int table) const
{
    for (const TableRecord& t : tables_) {
        if (t.table == table) {
            return t.dim;
        }
    }
    return 0;
}

uint64_t
DiskTier::tableRows(int table) const
{
    for (const TableRecord& t : tables_) {
        if (t.table == table) {
            return t.coldRows;
        }
    }
    return 0;
}

DiskTierStats
DiskTier::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    DiskTierStats s = stats_;
    s.numDataPages = numDataPages_;
    s.fileBytes = fileBytes_;
    s.frameBytes = config_.bufferPages * config_.pageBytes;
    s.spline = index_->stats();
    return s;
}

void
DiskTier::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DiskTierStats{};
}

}  // namespace recstack
