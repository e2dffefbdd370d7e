#include "index/factory.h"

#include <utility>

#include "index/adsplus/adsplus.h"
#include "index/dstree/dstree.h"
#include "index/flann/flann.h"
#include "index/hnsw/hnsw.h"
#include "index/imi/imi.h"
#include "index/isax/isax_index.h"
#include "index/mtree/mtree.h"
#include "index/qalsh/qalsh.h"
#include "index/scan/linear_scan.h"
#include "index/sfa/sfa.h"
#include "index/srs/srs.h"
#include "index/vafile/vafile.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

// Apply-if-set: BuildOptions uses 0 for "keep the method default".
template <typename T>
void SetIfNonZero(T* field, size_t value) {
  if (value != 0) *field = static_cast<T>(value);
}

// Owns the full serving stack Index::Open assembles — storage (buffer
// pool or in-memory copy), raw data, and the index over them — and
// forwards the Index interface to the inner method. The one object a
// caller keeps alive instead of three.
class OwningIndex final : public Index {
 public:
  OwningIndex(std::unique_ptr<Dataset> data,
              std::unique_ptr<BufferManager> pool,
              std::unique_ptr<InMemoryProvider> memory,
              std::unique_ptr<Index> index)
      : data_(std::move(data)),
        pool_(std::move(pool)),
        memory_(std::move(memory)),
        index_(std::move(index)) {}

  std::string name() const override { return index_->name(); }
  IndexCapabilities capabilities() const override {
    return index_->capabilities();
  }
  size_t MemoryBytes() const override { return index_->MemoryBytes(); }
  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override {
    return index_->Search(query, params, counters);
  }
  std::vector<Result<KnnAnswer>> BatchSearch(
      std::span<const BatchQuery> batch) const override {
    return index_->BatchSearch(batch);
  }

  // The provider the index serves from (the session needs it for pin
  // budget negotiation); may be the pool or the in-memory copy.
  SeriesProvider* provider() const {
    return pool_ != nullptr ? static_cast<SeriesProvider*>(pool_.get())
                            : static_cast<SeriesProvider*>(memory_.get());
  }

 private:
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<BufferManager> pool_;
  std::unique_ptr<InMemoryProvider> memory_;
  std::unique_ptr<Index> index_;
};

}  // namespace

const std::vector<std::string>& KnownMethods() {
  static const std::vector<std::string> kMethods = {
      "scan",   "dstree", "isax", "adsplus", "vafile", "sfa",
      "mtree",  "srs",    "qalsh", "hnsw",   "imi",    "flann"};
  return kMethods;
}

Result<std::unique_ptr<Index>> BuildIndex(const Dataset& data,
                                          SeriesProvider* provider,
                                          const BuildOptions& options) {
  const std::string& m = options.method;
  if (m == "scan") {
    if (provider == nullptr) {
      return Status::InvalidArgument("scan requires a provider");
    }
    return std::unique_ptr<Index>(
        std::make_unique<LinearScanIndex>(provider));
  }
  if (m == "dstree") {
    DSTreeOptions o;
    SetIfNonZero(&o.leaf_capacity, options.leaf_capacity);
    SetIfNonZero(&o.histogram_pairs, options.histogram_pairs);
    HYDRA_ASSIGN_OR_RETURN(auto idx, DSTreeIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "isax") {
    IsaxOptions o;
    SetIfNonZero(&o.segments, options.segments);
    SetIfNonZero(&o.leaf_capacity, options.leaf_capacity);
    SetIfNonZero(&o.histogram_pairs, options.histogram_pairs);
    HYDRA_ASSIGN_OR_RETURN(auto idx, IsaxIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "adsplus") {
    AdsPlusOptions o;
    SetIfNonZero(&o.segments, options.segments);
    SetIfNonZero(&o.query_leaf_capacity, options.leaf_capacity);
    SetIfNonZero(&o.histogram_pairs, options.histogram_pairs);
    HYDRA_ASSIGN_OR_RETURN(auto idx, AdsPlusIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "vafile") {
    VaFileOptions o;
    SetIfNonZero(&o.num_features, options.num_features);
    SetIfNonZero(&o.histogram_pairs, options.histogram_pairs);
    HYDRA_ASSIGN_OR_RETURN(auto idx, VaFileIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "sfa") {
    SfaOptions o;
    SetIfNonZero(&o.num_features, options.num_features);
    SetIfNonZero(&o.leaf_capacity, options.leaf_capacity);
    SetIfNonZero(&o.histogram_pairs, options.histogram_pairs);
    HYDRA_ASSIGN_OR_RETURN(auto idx, SfaIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "mtree") {
    MTreeOptions o;
    SetIfNonZero(&o.node_capacity, options.leaf_capacity);
    SetIfNonZero(&o.histogram_pairs, options.histogram_pairs);
    HYDRA_ASSIGN_OR_RETURN(auto idx, MTreeIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "srs") {
    SrsOptions o;
    SetIfNonZero(&o.projections, options.srs_projections);
    HYDRA_ASSIGN_OR_RETURN(auto idx, SrsIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "qalsh") {
    QalshOptions o;
    SetIfNonZero(&o.num_hashes, options.qalsh_hashes);
    HYDRA_ASSIGN_OR_RETURN(auto idx, QalshIndex::Build(data, provider, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "hnsw") {
    HnswOptions o;
    SetIfNonZero(&o.M, options.hnsw_m);
    SetIfNonZero(&o.ef_construction, options.hnsw_ef_construction);
    HYDRA_ASSIGN_OR_RETURN(auto idx, HnswIndex::Build(data, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "imi") {
    ImiOptions o;
    SetIfNonZero(&o.coarse_k, options.imi_coarse_k);
    // 64 training series per codeword: the default 4,096 at K = 64.
    o.train_sample = 64 * o.coarse_k;
    HYDRA_ASSIGN_OR_RETURN(auto idx, ImiIndex::Build(data, o));
    return std::unique_ptr<Index>(std::move(idx));
  }
  if (m == "flann") {
    HYDRA_ASSIGN_OR_RETURN(auto idx, FlannIndex::Build(data, FlannOptions{}));
    return std::unique_ptr<Index>(std::move(idx));
  }
  return Status::InvalidArgument("unknown method: " + m);
}

Result<std::unique_ptr<Index>> Index::Open(const std::string& path,
                                           const BuildOptions& options) {
  // Always materialize the dataset once: tree construction needs the raw
  // series regardless of where queries will read them from.
  HYDRA_ASSIGN_OR_RETURN(auto reader, SeriesFileReader::Open(path));
  HYDRA_ASSIGN_OR_RETURN(Dataset read, reader->ReadAll(nullptr));
  auto data = std::make_unique<Dataset>(std::move(read));
  reader.reset();  // the serving provider opens its own descriptor

  std::unique_ptr<BufferManager> pool;
  std::unique_ptr<InMemoryProvider> memory;
  SeriesProvider* provider = nullptr;
  if (options.page_series != 0 || options.capacity_pages != 0) {
    // Disk-resident serving through a page-pinning pool sized by the
    // caller (both knobs default to a small sane shape if only one is
    // given).
    const uint64_t page_series =
        options.page_series != 0 ? options.page_series : 64;
    const uint64_t capacity =
        options.capacity_pages != 0 ? options.capacity_pages : 128;
    HYDRA_ASSIGN_OR_RETURN(pool,
                           BufferManager::Open(path, page_series, capacity));
    provider = pool.get();
  } else {
    memory = std::make_unique<InMemoryProvider>(data.get());
    provider = memory.get();
  }
  HYDRA_ASSIGN_OR_RETURN(auto index, BuildIndex(*data, provider, options));
  return std::unique_ptr<Index>(
      std::make_unique<OwningIndex>(std::move(data), std::move(pool),
                                    std::move(memory), std::move(index)));
}

}  // namespace hydra
