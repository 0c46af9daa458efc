#include "persist/codec.h"

#include <algorithm>
#include <utility>

#include "persist/persist_peer.h"

namespace dar {
namespace {

using persist::WireReader;
using persist::WireWriter;

// Reads `count` raw doubles (no length prefix; the caller knows the count).
Status ReadF64s(WireReader& r, size_t count, std::vector<double>& out,
                const char* what) {
  if (r.remaining() < 8 * count) {
    return Status::OutOfRange(std::string(what) + " truncated: need " +
                              std::to_string(8 * count) + " bytes, have " +
                              std::to_string(r.remaining()));
  }
  out.resize(count);
  for (size_t i = 0; i < count; ++i) {
    DAR_ASSIGN_OR_RETURN(out[i], r.F64());
  }
  return Status::OK();
}

void WriteF64Vec(WireWriter& w, std::span<const double> v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (double x : v) w.F64(x);
}

Result<std::vector<double>> ReadF64Vec(WireReader& r, const char* what) {
  DAR_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  std::vector<double> out;
  DAR_RETURN_IF_ERROR(ReadF64s(r, count, out, what));
  return out;
}

// Reads a u32 element count and refuses counts that could not possibly fit
// in the remaining bytes (each element needs >= `min_bytes_each`), so a
// corrupt count can never trigger a huge allocation.
Result<size_t> ReadCount(WireReader& r, size_t min_bytes_each,
                         const char* what) {
  DAR_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (static_cast<uint64_t>(count) * min_bytes_each > r.remaining()) {
    return Status::OutOfRange(
        std::string(what) + " count " + std::to_string(count) +
        " cannot fit in the " + std::to_string(r.remaining()) +
        " remaining bytes");
  }
  return static_cast<size_t>(count);
}

Result<MetricKind> ReadMetricKind(WireReader& r, const char* what) {
  DAR_ASSIGN_OR_RETURN(uint8_t raw, r.U8());
  if (raw > static_cast<uint8_t>(MetricKind::kDiscrete)) {
    return Status::InvalidArgument(std::string(what) + ": metric kind " +
                                   std::to_string(raw) + " is out of range");
  }
  return static_cast<MetricKind>(raw);
}

Result<bool> ReadBool(WireReader& r, const char* what) {
  DAR_ASSIGN_OR_RETURN(uint8_t raw, r.U8());
  if (raw > 1) {
    return Status::InvalidArgument(std::string(what) + ": boolean byte " +
                                   std::to_string(raw) + " is not 0 or 1");
  }
  return raw != 0;
}

void WriteTreeOptions(WireWriter& w, const AcfTreeOptions& o) {
  w.I32(o.branching_factor);
  w.I32(o.leaf_capacity);
  w.F64(o.initial_threshold);
  w.U64(o.memory_budget_bytes);
  w.F64(o.threshold_growth);
  w.I64(o.outlier_entry_min_n);
  w.I32(o.max_rebuilds_per_insert);
}

Result<AcfTreeOptions> ReadTreeOptions(WireReader& r) {
  AcfTreeOptions o;
  DAR_ASSIGN_OR_RETURN(o.branching_factor, r.I32());
  DAR_ASSIGN_OR_RETURN(o.leaf_capacity, r.I32());
  DAR_ASSIGN_OR_RETURN(o.initial_threshold, r.F64());
  DAR_ASSIGN_OR_RETURN(uint64_t budget, r.U64());
  o.memory_budget_bytes = static_cast<size_t>(budget);
  DAR_ASSIGN_OR_RETURN(o.threshold_growth, r.F64());
  DAR_ASSIGN_OR_RETURN(o.outlier_entry_min_n, r.I64());
  DAR_ASSIGN_OR_RETURN(o.max_rebuilds_per_insert, r.I32());
  if (o.branching_factor < 2 || o.leaf_capacity < 1 ||
      o.memory_budget_bytes == 0) {
    return Status::InvalidArgument(
        "tree options out of range: branching_factor " +
        std::to_string(o.branching_factor) + ", leaf_capacity " +
        std::to_string(o.leaf_capacity) + ", memory_budget " +
        std::to_string(o.memory_budget_bytes));
  }
  return o;
}

// Per-Acf floor on the wire: own_part u32 + image-count u32 + per image at
// least a CF header (metric u8 + dim u32 + n i64).
constexpr size_t kMinAcfBytes = 4 + 4 + 13;

}  // namespace

// ---------------------------------------------------------------------------
// PersistPeer: CfVector
// ---------------------------------------------------------------------------

void PersistPeer::EncodeCf(const CfVector& cf, WireWriter& w) {
  w.U8(static_cast<uint8_t>(cf.metric_));
  w.U32(static_cast<uint32_t>(cf.dim()));
  w.I64(cf.n_);
  for (double v : cf.ls_) w.F64(v);
  for (double v : cf.ss_) w.F64(v);
  for (double v : cf.min_) w.F64(v);
  for (double v : cf.max_) w.F64(v);
  if (cf.metric_ == MetricKind::kDiscrete) {
    // std::map iterates keys in ascending order, so the histogram encoding
    // (and therefore the whole checkpoint) is canonical for a given state.
    for (const auto& hist : cf.hist_) {
      w.U32(static_cast<uint32_t>(hist.size()));
      for (const auto& [value, count] : hist) {
        w.F64(value);
        w.I64(count);
      }
    }
  }
}

Result<CfVector> PersistPeer::DecodeCf(WireReader& r) {
  DAR_ASSIGN_OR_RETURN(MetricKind metric, ReadMetricKind(r, "CF"));
  DAR_ASSIGN_OR_RETURN(uint32_t dim, r.U32());
  DAR_ASSIGN_OR_RETURN(int64_t n, r.I64());
  if (n < 0) {
    return Status::InvalidArgument("CF tuple count " + std::to_string(n) +
                                   " is negative");
  }
  // The four moment vectors alone need 32*dim bytes; checking before the
  // CfVector(dim, ...) constructor allocates keeps a corrupt dim from
  // requesting gigabytes.
  if (r.remaining() < 32ull * dim) {
    return Status::OutOfRange("CF of dimension " + std::to_string(dim) +
                              " truncated: need " + std::to_string(32ull * dim) +
                              " bytes, have " + std::to_string(r.remaining()));
  }
  CfVector cf(dim, metric);
  cf.n_ = n;
  DAR_RETURN_IF_ERROR(ReadF64s(r, dim, cf.ls_, "CF linear sums"));
  DAR_RETURN_IF_ERROR(ReadF64s(r, dim, cf.ss_, "CF squared sums"));
  DAR_RETURN_IF_ERROR(ReadF64s(r, dim, cf.min_, "CF minima"));
  DAR_RETURN_IF_ERROR(ReadF64s(r, dim, cf.max_, "CF maxima"));
  if (metric == MetricKind::kDiscrete) {
    for (size_t d = 0; d < dim; ++d) {
      DAR_ASSIGN_OR_RETURN(size_t entries,
                           ReadCount(r, 16, "CF histogram entry"));
      auto& hist = cf.hist_[d];
      for (size_t i = 0; i < entries; ++i) {
        DAR_ASSIGN_OR_RETURN(double value, r.F64());
        DAR_ASSIGN_OR_RETURN(int64_t count, r.I64());
        if (count < 0) {
          return Status::InvalidArgument("CF histogram count " +
                                         std::to_string(count) +
                                         " is negative");
        }
        hist[value] = count;
      }
      if (hist.size() != entries) {
        return Status::InvalidArgument(
            "CF histogram has duplicate value keys");
      }
    }
  }
  return cf;
}

// ---------------------------------------------------------------------------
// PersistPeer: Acf
// ---------------------------------------------------------------------------

void PersistPeer::EncodeAcf(const Acf& acf, WireWriter& w) {
  w.U32(static_cast<uint32_t>(acf.own_part_));
  w.U32(static_cast<uint32_t>(acf.images_.size()));
  for (const CfVector& image : acf.images_) EncodeCf(image, w);
}

Result<Acf> PersistPeer::DecodeAcf(WireReader& r,
                                   std::shared_ptr<const AcfLayout> layout) {
  DAR_ASSIGN_OR_RETURN(uint32_t own_part, r.U32());
  DAR_ASSIGN_OR_RETURN(uint32_t num_images, r.U32());
  if (own_part >= layout->num_parts()) {
    return Status::InvalidArgument(
        "ACF own_part " + std::to_string(own_part) + " is outside the " +
        std::to_string(layout->num_parts()) + "-part layout");
  }
  if (num_images != layout->num_parts()) {
    return Status::InvalidArgument(
        "ACF has " + std::to_string(num_images) + " images, layout has " +
        std::to_string(layout->num_parts()) + " parts");
  }
  std::vector<CfVector> images;
  images.reserve(num_images);
  for (uint32_t p = 0; p < num_images; ++p) {
    DAR_ASSIGN_OR_RETURN(CfVector image, DecodeCf(r));
    const PartSpec& spec = layout->parts[p];
    if (image.dim() != spec.dim || image.metric() != spec.metric) {
      return Status::InvalidArgument(
          "ACF image " + std::to_string(p) + " has dim " +
          std::to_string(image.dim()) + "/metric " +
          std::to_string(static_cast<int>(image.metric())) +
          ", layout expects dim " + std::to_string(spec.dim) + "/metric " +
          std::to_string(static_cast<int>(spec.metric)));
    }
    images.push_back(std::move(image));
  }
  Acf acf(std::move(layout), own_part);
  acf.images_ = std::move(images);
  return acf;
}

// ---------------------------------------------------------------------------
// PersistPeer: AcfTree nodes (preorder structural walk)
// ---------------------------------------------------------------------------

template <typename Node>
void PersistPeer::EncodeNode(const Node& node, WireWriter& w) {
  w.U8(node.is_leaf ? 1 : 0);
  if (node.is_leaf) {
    w.U32(static_cast<uint32_t>(node.entries.size()));
    for (const Acf& entry : node.entries) EncodeAcf(entry, w);
  } else {
    w.U32(static_cast<uint32_t>(node.children.size()));
    for (const auto& child : node.children) {
      EncodeCf(child.cf, w);
      EncodeNode(*child.child, w);
    }
  }
}

template <typename Node>
Result<std::unique_ptr<Node>> PersistPeer::DecodeNode(
    WireReader& r, const std::shared_ptr<const AcfLayout>& layout,
    size_t own_part, int depth, size_t& num_nodes,
    size_t& num_leaf_entries) {
  // The tree is height-balanced; a depth beyond any plausible height means
  // the bytes are corrupt (or adversarial) and recursing further would
  // only risk stack exhaustion.
  if (depth > 64) {
    return Status::InvalidArgument(
        "tree node nesting exceeds 64 levels — corrupt checkpoint");
  }
  DAR_ASSIGN_OR_RETURN(bool is_leaf, ReadBool(r, "node is_leaf flag"));
  auto node = std::make_unique<Node>();
  node->is_leaf = is_leaf;
  ++num_nodes;
  if (is_leaf) {
    DAR_ASSIGN_OR_RETURN(size_t entries,
                         ReadCount(r, kMinAcfBytes, "leaf entry"));
    node->entries.reserve(entries);
    for (size_t i = 0; i < entries; ++i) {
      DAR_ASSIGN_OR_RETURN(Acf entry, DecodeAcf(r, layout));
      if (entry.own_part() != own_part) {
        return Status::InvalidArgument(
            "leaf entry belongs to part " + std::to_string(entry.own_part()) +
            ", tree clusters part " + std::to_string(own_part));
      }
      node->entries.push_back(std::move(entry));
    }
    num_leaf_entries += entries;
  } else {
    DAR_ASSIGN_OR_RETURN(size_t children,
                         ReadCount(r, 14, "internal child"));
    if (children == 0) {
      return Status::InvalidArgument(
          "internal tree node with zero children — corrupt checkpoint");
    }
    node->children.reserve(children);
    const PartSpec& own_spec = layout->parts[own_part];
    for (size_t i = 0; i < children; ++i) {
      DAR_ASSIGN_OR_RETURN(CfVector cf, DecodeCf(r));
      if (cf.dim() != own_spec.dim || cf.metric() != own_spec.metric) {
        return Status::InvalidArgument(
            "internal child CF has dim " + std::to_string(cf.dim()) +
            "/metric " + std::to_string(static_cast<int>(cf.metric())) +
            ", tree's own part expects dim " + std::to_string(own_spec.dim) +
            "/metric " + std::to_string(static_cast<int>(own_spec.metric)));
      }
      DAR_ASSIGN_OR_RETURN(
          std::unique_ptr<Node> child,
          DecodeNode<Node>(r, layout, own_part, depth + 1, num_nodes,
                           num_leaf_entries));
      typename std::remove_reference_t<decltype(node->children)>::value_type
          ref;
      ref.cf = std::move(cf);
      ref.child = std::move(child);
      node->children.push_back(std::move(ref));
    }
  }
  return node;
}

// ---------------------------------------------------------------------------
// PersistPeer: AcfTree
// ---------------------------------------------------------------------------

// Tree blob layout (fixed offsets through num_leaf_entries, which
// tools/dar_ckpt.py reads without a full ACF decoder):
//   0   u32  own_part
//   4   i32  branching_factor        |
//   8   i32  leaf_capacity            |
//   12  f64  initial_threshold        |
//   20  u64  memory_budget_bytes      |  AcfTreeOptions
//   28  f64  threshold_growth         |
//   36  i64  outlier_entry_min_n      |
//   44  i32  max_rebuilds_per_insert /
//   48  f64  threshold
//   56  i32  rebuild_count
//   60  i64  split_count
//   68  i64  points_inserted
//   76  u64  num_nodes
//   84  u64  num_leaf_entries
//   92  outlier_buffer (u32 count + ACFs), outliers (u32 count + ACFs),
//       then the root node walk.
void PersistPeer::EncodeTree(const AcfTree& tree, WireWriter& w) {
  w.U32(static_cast<uint32_t>(tree.own_part_));
  WriteTreeOptions(w, tree.options_);
  w.F64(tree.threshold_);
  w.I32(tree.rebuild_count_);
  w.I64(tree.split_count_);
  w.I64(tree.points_inserted_);
  w.U64(tree.num_nodes_);
  w.U64(tree.num_leaf_entries_);
  w.U32(static_cast<uint32_t>(tree.outlier_buffer_.size()));
  for (const Acf& acf : tree.outlier_buffer_) EncodeAcf(acf, w);
  w.U32(static_cast<uint32_t>(tree.outliers_.size()));
  for (const Acf& acf : tree.outliers_) EncodeAcf(acf, w);
  EncodeNode(*tree.root_, w);
}

Result<std::unique_ptr<AcfTree>> PersistPeer::DecodeTree(
    WireReader& r, std::shared_ptr<const AcfLayout> layout,
    size_t expect_part) {
  if (layout == nullptr || expect_part >= layout->num_parts()) {
    return Status::InvalidArgument(
        "DecodeTree: expect_part " + std::to_string(expect_part) +
        " is outside the layout");
  }
  DAR_ASSIGN_OR_RETURN(uint32_t own_part, r.U32());
  if (own_part != expect_part) {
    return Status::InvalidArgument(
        "tree clusters part " + std::to_string(own_part) + ", expected part " +
        std::to_string(expect_part));
  }
  DAR_ASSIGN_OR_RETURN(AcfTreeOptions options, ReadTreeOptions(r));

  double threshold;
  int rebuild_count;
  int64_t split_count, points_inserted;
  uint64_t num_nodes, num_leaf_entries;
  DAR_ASSIGN_OR_RETURN(threshold, r.F64());
  DAR_ASSIGN_OR_RETURN(rebuild_count, r.I32());
  DAR_ASSIGN_OR_RETURN(split_count, r.I64());
  DAR_ASSIGN_OR_RETURN(points_inserted, r.I64());
  DAR_ASSIGN_OR_RETURN(num_nodes, r.U64());
  DAR_ASSIGN_OR_RETURN(num_leaf_entries, r.U64());
  if (!(threshold >= 0) || rebuild_count < 0 || split_count < 0 ||
      points_inserted < 0) {
    return Status::InvalidArgument(
        "tree counters out of range: threshold " + std::to_string(threshold) +
        ", rebuilds " + std::to_string(rebuild_count) + ", splits " +
        std::to_string(split_count) + ", points " +
        std::to_string(points_inserted));
  }

  // Public constructor first: the tree below is always fully formed (empty
  // root, correct layout byte estimate); decoded state replaces its parts
  // only after every byte has been read and validated.
  auto tree = std::make_unique<AcfTree>(layout, expect_part, options);

  DAR_ASSIGN_OR_RETURN(size_t buffered,
                       ReadCount(r, kMinAcfBytes, "outlier-buffer entry"));
  std::vector<Acf> outlier_buffer;
  outlier_buffer.reserve(buffered);
  for (size_t i = 0; i < buffered; ++i) {
    DAR_ASSIGN_OR_RETURN(Acf acf, DecodeAcf(r, layout));
    outlier_buffer.push_back(std::move(acf));
  }
  DAR_ASSIGN_OR_RETURN(size_t confirmed,
                       ReadCount(r, kMinAcfBytes, "outlier entry"));
  std::vector<Acf> outliers;
  outliers.reserve(confirmed);
  for (size_t i = 0; i < confirmed; ++i) {
    DAR_ASSIGN_OR_RETURN(Acf acf, DecodeAcf(r, layout));
    outliers.push_back(std::move(acf));
  }

  size_t counted_nodes = 0, counted_leaf_entries = 0;
  DAR_ASSIGN_OR_RETURN(
      std::unique_ptr<AcfTree::Node> root,
      DecodeNode<AcfTree::Node>(r, layout, expect_part, 0, counted_nodes,
                                counted_leaf_entries));
  // The cached counters drive memory budgeting and stats; a mismatch with
  // the actual structure means the blob is internally inconsistent.
  if (counted_nodes != num_nodes || counted_leaf_entries != num_leaf_entries) {
    return Status::InvalidArgument(
        "tree counter mismatch: header claims " + std::to_string(num_nodes) +
        " nodes/" + std::to_string(num_leaf_entries) + " leaf entries, walk "
        "found " + std::to_string(counted_nodes) + "/" +
        std::to_string(counted_leaf_entries));
  }

  tree->threshold_ = threshold;
  tree->rebuild_count_ = rebuild_count;
  tree->split_count_ = split_count;
  tree->points_inserted_ = points_inserted;
  tree->num_nodes_ = counted_nodes;
  tree->num_leaf_entries_ = counted_leaf_entries;
  tree->outlier_buffer_ = std::move(outlier_buffer);
  tree->outliers_ = std::move(outliers);
  tree->root_ = std::move(root);
  return tree;
}

// ---------------------------------------------------------------------------
// PersistPeer: Phase1Builder
// ---------------------------------------------------------------------------

void PersistPeer::EncodeBuilder(const Phase1Builder& builder, WireWriter& w) {
  w.I64(builder.rows_added_);
  w.U32(static_cast<uint32_t>(builder.trees_.size()));
  for (const auto& tree : builder.trees_) {
    WireWriter blob;
    EncodeTree(*tree, blob);
    w.U64(blob.size());
    w.Raw(blob.bytes());
  }
}

Result<Phase1Builder> PersistPeer::DecodeBuilder(
    WireReader& r, const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor,
    telemetry::TelemetryContext telemetry) {
  DAR_ASSIGN_OR_RETURN(int64_t rows_added, r.I64());
  DAR_ASSIGN_OR_RETURN(uint32_t num_parts, r.U32());
  if (rows_added < 0) {
    return Status::InvalidArgument("builder rows_added " +
                                   std::to_string(rows_added) +
                                   " is negative");
  }
  if (num_parts != partition.num_parts()) {
    return Status::InvalidArgument(
        "checkpoint builder has " + std::to_string(num_parts) +
        " part trees, the partition has " +
        std::to_string(partition.num_parts()) + " parts");
  }

  // One shared layout for the builder and every tree/ACF under it: the
  // summary classes compare layouts by pointer identity, so decode must
  // thread a single shared_ptr through everything it constructs.
  auto layout = std::make_shared<AcfLayout>();
  layout->parts.reserve(partition.num_parts());
  for (const auto& part : partition.parts()) {
    layout->parts.push_back({part.dimension(), part.metric, part.label});
  }

  std::vector<std::unique_ptr<AcfTree>> trees;
  trees.reserve(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    DAR_ASSIGN_OR_RETURN(uint64_t blob_len, r.U64());
    DAR_ASSIGN_OR_RETURN(WireReader blob,
                         r.Slice(static_cast<size_t>(blob_len)));
    auto tree = persist::DecodeTree(blob, layout, p);
    if (!tree.ok()) {
      return Status(tree.status().code(), "part " + std::to_string(p) +
                                              " tree: " +
                                              tree.status().message());
    }
    DAR_RETURN_IF_ERROR(
        blob.ExpectEnd("part " + std::to_string(p) + " tree blob"));
    trees.push_back(std::move(*tree));
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("builder section"));

  Phase1Builder builder(config, partition, std::move(layout),
                        std::move(trees), schema.num_attributes(), executor,
                        telemetry);
  builder.rows_added_ = rows_added;
  return builder;
}

// ---------------------------------------------------------------------------
// Public section codecs
// ---------------------------------------------------------------------------

namespace persist {

void EncodeTree(const AcfTree& tree, WireWriter& w) {
  PersistPeer::EncodeTree(tree, w);
}

Result<std::unique_ptr<AcfTree>> DecodeTree(
    WireReader& r, std::shared_ptr<const AcfLayout> layout,
    size_t expect_part) {
  DAR_ASSIGN_OR_RETURN(
      std::unique_ptr<AcfTree> tree,
      PersistPeer::DecodeTree(r, std::move(layout), expect_part));
#ifdef DAR_VALIDATE_INVARIANTS
  // A CRC catches flipped bits, not semantically wrong (e.g. version-
  // skewed) trees: under validation builds every decoded tree must also
  // pass the full structural/arithmetic invariant walk, which names the
  // offending node path on failure.
  if (Status s = tree->ValidateInvariants(); !s.ok()) {
    return Status(s.code(),
                  "decoded tree failed invariant validation: " + s.message());
  }
#endif
  return tree;
}

std::string EncodeSchemaSection(const Schema& schema) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(schema.num_attributes()));
  for (const Attribute& attr : schema.attributes()) {
    w.Str(attr.name);
    w.U8(static_cast<uint8_t>(attr.kind));
  }
  return std::move(w).Take();
}

Result<Schema> DecodeSchemaSection(std::string_view bytes) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(size_t count, ReadCount(r, 5, "schema attribute"));
  std::vector<Attribute> attrs;
  attrs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Attribute attr;
    DAR_ASSIGN_OR_RETURN(attr.name, r.Str());
    DAR_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(AttributeKind::kNominal)) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' has kind byte " +
                                     std::to_string(kind));
    }
    attr.kind = static_cast<AttributeKind>(kind);
    attrs.push_back(std::move(attr));
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("schema section"));
  return Schema::Make(std::move(attrs));
}

std::string EncodeDictionariesSection(
    std::span<const Dictionary> dictionaries) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(dictionaries.size()));
  for (const Dictionary& dict : dictionaries) {
    w.U32(static_cast<uint32_t>(dict.size()));
    for (size_t code = 0; code < dict.size(); ++code) {
      // Decode(code) cannot fail for codes the dictionary itself reports.
      w.Str(dict.Decode(static_cast<double>(code)).ValueOrDie());
    }
  }
  return std::move(w).Take();
}

Result<std::vector<Dictionary>> DecodeDictionariesSection(
    std::string_view bytes) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(size_t count, ReadCount(r, 4, "dictionary"));
  std::vector<Dictionary> dictionaries(count);
  for (size_t i = 0; i < count; ++i) {
    DAR_ASSIGN_OR_RETURN(size_t labels, ReadCount(r, 4, "dictionary label"));
    for (size_t code = 0; code < labels; ++code) {
      DAR_ASSIGN_OR_RETURN(std::string label, r.Str());
      // Encode assigns codes 0,1,2,... in insertion order, so feeding the
      // labels back in code order reproduces the exact mapping.
      const double assigned = dictionaries[i].Encode(label);
      if (assigned != static_cast<double>(code)) {
        return Status::InvalidArgument(
            "dictionary " + std::to_string(i) + " has duplicate label '" +
            label + "'");
      }
    }
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("dictionaries section"));
  return dictionaries;
}

std::string EncodeShardsSection(std::span<const ShardInfo> shards) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(shards.size()));
  for (const ShardInfo& s : shards) {
    w.I64(s.shard_id);
    w.I64(s.rows);
  }
  return std::move(w).Take();
}

Result<std::vector<ShardInfo>> DecodeShardsSection(std::string_view bytes) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(size_t count, ReadCount(r, 16, "shard"));
  std::vector<ShardInfo> shards(count);
  for (size_t i = 0; i < count; ++i) {
    DAR_ASSIGN_OR_RETURN(shards[i].shard_id, r.I64());
    DAR_ASSIGN_OR_RETURN(shards[i].rows, r.I64());
    if (shards[i].rows < 0) {
      return Status::InvalidArgument(
          "shard " + std::to_string(i) + " claims negative row count " +
          std::to_string(shards[i].rows));
    }
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("shards section"));
  return shards;
}

std::string EncodePartitionSection(const AttributePartition& partition) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(partition.num_parts()));
  for (const AttributeSet& part : partition.parts()) {
    w.U8(static_cast<uint8_t>(part.metric));
    w.U32(static_cast<uint32_t>(part.columns.size()));
    for (size_t col : part.columns) w.U64(col);
  }
  return std::move(w).Take();
}

Result<AttributePartition> DecodePartitionSection(std::string_view bytes,
                                                  const Schema& schema) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(size_t num_parts, ReadCount(r, 5, "partition part"));
  std::vector<std::pair<std::vector<std::string>, MetricKind>> parts;
  parts.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    DAR_ASSIGN_OR_RETURN(MetricKind metric,
                         ReadMetricKind(r, "partition part"));
    DAR_ASSIGN_OR_RETURN(size_t cols, ReadCount(r, 8, "partition column"));
    std::vector<std::string> names;
    names.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      DAR_ASSIGN_OR_RETURN(uint64_t col, r.U64());
      if (col >= schema.num_attributes()) {
        return Status::InvalidArgument(
            "partition part " + std::to_string(p) + " references column " +
            std::to_string(col) + " outside the " +
            std::to_string(schema.num_attributes()) + "-attribute schema");
      }
      names.push_back(schema.attribute(static_cast<size_t>(col)).name);
    }
    parts.emplace_back(std::move(names), metric);
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("partition section"));
  return AttributePartition::Make(schema, parts);
}

std::string EncodeConfigSection(const DarConfig& config) {
  WireWriter w;
  w.U64(config.memory_budget_bytes);
  w.F64(config.frequency_fraction);
  w.F64(config.outlier_fraction);
  WriteF64Vec(w, config.initial_diameters);
  WriteTreeOptions(w, config.tree);
  w.U8(config.refine_clusters ? 1 : 0);
  w.U8(static_cast<uint8_t>(config.metric));
  w.F64(config.degree_threshold);
  WriteF64Vec(w, config.degree_thresholds);
  WriteF64Vec(w, config.density_thresholds);
  w.F64(config.phase2_leniency);
  w.U8(config.prune_low_density_images ? 1 : 0);
  w.U64(config.max_antecedent);
  w.U64(config.max_consequent);
  w.U64(config.max_rules);
  w.U64(config.max_cliques);
  w.U8(config.count_rule_support ? 1 : 0);
  return std::move(w).Take();
}

Result<DarConfig> DecodeConfigSection(std::string_view bytes) {
  WireReader r(bytes);
  DarConfig config;
  DAR_ASSIGN_OR_RETURN(uint64_t budget, r.U64());
  config.memory_budget_bytes = static_cast<size_t>(budget);
  DAR_ASSIGN_OR_RETURN(config.frequency_fraction, r.F64());
  DAR_ASSIGN_OR_RETURN(config.outlier_fraction, r.F64());
  DAR_ASSIGN_OR_RETURN(config.initial_diameters,
                       ReadF64Vec(r, "initial_diameters"));
  DAR_ASSIGN_OR_RETURN(config.tree, ReadTreeOptions(r));
  DAR_ASSIGN_OR_RETURN(config.refine_clusters, ReadBool(r, "refine_clusters"));
  DAR_ASSIGN_OR_RETURN(uint8_t metric, r.U8());
  if (metric > static_cast<uint8_t>(ClusterMetric::kD4VarIncrease)) {
    return Status::InvalidArgument("cluster metric byte " +
                                   std::to_string(metric) +
                                   " is out of range");
  }
  config.metric = static_cast<ClusterMetric>(metric);
  DAR_ASSIGN_OR_RETURN(config.degree_threshold, r.F64());
  DAR_ASSIGN_OR_RETURN(config.degree_thresholds,
                       ReadF64Vec(r, "degree_thresholds"));
  DAR_ASSIGN_OR_RETURN(config.density_thresholds,
                       ReadF64Vec(r, "density_thresholds"));
  DAR_ASSIGN_OR_RETURN(config.phase2_leniency, r.F64());
  DAR_ASSIGN_OR_RETURN(config.prune_low_density_images,
                       ReadBool(r, "prune_low_density_images"));
  DAR_ASSIGN_OR_RETURN(uint64_t max_antecedent, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t max_consequent, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t max_rules, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t max_cliques, r.U64());
  config.max_antecedent = static_cast<size_t>(max_antecedent);
  config.max_consequent = static_cast<size_t>(max_consequent);
  config.max_rules = static_cast<size_t>(max_rules);
  config.max_cliques = static_cast<size_t>(max_cliques);
  DAR_ASSIGN_OR_RETURN(config.count_rule_support,
                       ReadBool(r, "count_rule_support"));
  DAR_RETURN_IF_ERROR(r.ExpectEnd("config section"));
  DAR_RETURN_IF_ERROR(config.Validate());
  return config;
}

std::string EncodeBuilderSection(const Phase1Builder& builder) {
  WireWriter w;
  PersistPeer::EncodeBuilder(builder, w);
  return std::move(w).Take();
}

Result<Phase1Builder> DecodeBuilderSection(
    std::string_view bytes, const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor,
    telemetry::TelemetryContext telemetry) {
  WireReader r(bytes);
  return PersistPeer::DecodeBuilder(r, config, schema, partition, executor,
                                    telemetry);
}

namespace {

void EncodeStats(const AcfTreeStats& s, WireWriter& w) {
  w.U64(s.num_nodes);
  w.U64(s.num_leaf_entries);
  w.U64(s.num_outliers);
  w.I32(s.rebuild_count);
  w.F64(s.threshold);
  w.U64(s.approx_bytes);
  w.I64(s.points_inserted);
  w.I64(s.split_count);
  w.I32(s.height);
}

Result<AcfTreeStats> DecodeStats(WireReader& r) {
  AcfTreeStats s;
  DAR_ASSIGN_OR_RETURN(uint64_t num_nodes, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t num_leaf_entries, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t num_outliers, r.U64());
  s.num_nodes = static_cast<size_t>(num_nodes);
  s.num_leaf_entries = static_cast<size_t>(num_leaf_entries);
  s.num_outliers = static_cast<size_t>(num_outliers);
  DAR_ASSIGN_OR_RETURN(s.rebuild_count, r.I32());
  DAR_ASSIGN_OR_RETURN(s.threshold, r.F64());
  DAR_ASSIGN_OR_RETURN(uint64_t approx_bytes, r.U64());
  s.approx_bytes = static_cast<size_t>(approx_bytes);
  DAR_ASSIGN_OR_RETURN(s.points_inserted, r.I64());
  DAR_ASSIGN_OR_RETURN(s.split_count, r.I64());
  DAR_ASSIGN_OR_RETURN(s.height, r.I32());
  return s;
}

Result<std::vector<size_t>> ReadIdVec(WireReader& r, size_t bound,
                                      const char* what) {
  DAR_ASSIGN_OR_RETURN(size_t count, ReadCount(r, 8, what));
  std::vector<size_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    DAR_ASSIGN_OR_RETURN(uint64_t id, r.U64());
    if (id >= bound) {
      return Status::InvalidArgument(
          std::string(what) + " references cluster " + std::to_string(id) +
          " outside the " + std::to_string(bound) + "-cluster set");
    }
    ids.push_back(static_cast<size_t>(id));
  }
  return ids;
}

}  // namespace

std::string EncodeResultsSection(uint64_t generation, int64_t rows_ingested,
                                 const Phase1Result& phase1,
                                 const Phase2Result& phase2) {
  WireWriter w;
  w.U64(generation);
  w.I64(rows_ingested);

  // Phase1Result.
  w.U32(static_cast<uint32_t>(phase1.layout->num_parts()));
  for (const PartSpec& spec : phase1.layout->parts) {
    w.U64(spec.dim);
    w.U8(static_cast<uint8_t>(spec.metric));
    w.Str(spec.label);
  }
  w.U32(static_cast<uint32_t>(phase1.clusters.size()));
  for (const FoundCluster& cluster : phase1.clusters.clusters()) {
    w.U64(cluster.id);
    w.U64(cluster.part);
    PersistPeer::EncodeAcf(cluster.acf, w);
  }
  w.U32(static_cast<uint32_t>(phase1.tree_stats.size()));
  for (const AcfTreeStats& stats : phase1.tree_stats) EncodeStats(stats, w);
  w.U32(static_cast<uint32_t>(phase1.outliers.size()));
  for (const Acf& acf : phase1.outliers) PersistPeer::EncodeAcf(acf, w);
  w.U32(static_cast<uint32_t>(phase1.raw_cluster_counts.size()));
  for (size_t count : phase1.raw_cluster_counts) w.U64(count);
  WriteF64Vec(w, phase1.effective_d0);
  w.I64(phase1.frequency_threshold);
  w.F64(phase1.seconds);

  // Phase2Result.
  w.U32(static_cast<uint32_t>(phase2.cliques.size()));
  for (const auto& clique : phase2.cliques) {
    w.U32(static_cast<uint32_t>(clique.size()));
    for (size_t id : clique) w.U64(id);
  }
  w.U64(phase2.num_nontrivial_cliques);
  w.U8(phase2.cliques_truncated ? 1 : 0);
  w.U64(phase2.graph_edges);
  w.U32(static_cast<uint32_t>(phase2.rules.size()));
  for (const DistanceRule& rule : phase2.rules) {
    w.U32(static_cast<uint32_t>(rule.antecedent.size()));
    for (size_t id : rule.antecedent) w.U64(id);
    w.U32(static_cast<uint32_t>(rule.consequent.size()));
    for (size_t id : rule.consequent) w.U64(id);
    w.F64(rule.degree);
    w.F64(rule.cooccurrence_slack);
    w.I64(rule.support_count);
  }
  w.U8(phase2.rules_truncated ? 1 : 0);
  w.F64(phase2.seconds);
  return std::move(w).Take();
}

Result<DecodedResults> DecodeResultsSection(std::string_view bytes) {
  WireReader r(bytes);
  DecodedResults out;
  DAR_ASSIGN_OR_RETURN(out.generation, r.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, r.I64());

  // Phase1Result. As everywhere in decode, one shared layout object is
  // threaded through the ClusterSet and every ACF.
  DAR_ASSIGN_OR_RETURN(size_t num_parts, ReadCount(r, 13, "layout part"));
  auto layout = std::make_shared<AcfLayout>();
  layout->parts.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    PartSpec spec;
    DAR_ASSIGN_OR_RETURN(uint64_t dim, r.U64());
    spec.dim = static_cast<size_t>(dim);
    DAR_ASSIGN_OR_RETURN(spec.metric, ReadMetricKind(r, "layout part"));
    DAR_ASSIGN_OR_RETURN(spec.label, r.Str());
    layout->parts.push_back(std::move(spec));
  }
  out.phase1.layout = layout;

  DAR_ASSIGN_OR_RETURN(size_t num_clusters,
                       ReadCount(r, 16 + kMinAcfBytes, "cluster"));
  std::vector<FoundCluster> clusters;
  clusters.reserve(num_clusters);
  for (size_t i = 0; i < num_clusters; ++i) {
    FoundCluster cluster;
    DAR_ASSIGN_OR_RETURN(uint64_t id, r.U64());
    DAR_ASSIGN_OR_RETURN(uint64_t part, r.U64());
    // ClusterSet's constructor DAR_CHECKs id density and part bounds;
    // validate here first so corrupt bytes fail with a Status, not a crash.
    if (id != i) {
      return Status::InvalidArgument(
          "cluster ids are not dense: cluster " + std::to_string(i) +
          " has id " + std::to_string(id));
    }
    if (part >= num_parts) {
      return Status::InvalidArgument(
          "cluster " + std::to_string(i) + " is on part " +
          std::to_string(part) + " of a " + std::to_string(num_parts) +
          "-part layout");
    }
    cluster.id = static_cast<size_t>(id);
    cluster.part = static_cast<size_t>(part);
    DAR_ASSIGN_OR_RETURN(cluster.acf, PersistPeer::DecodeAcf(r, layout));
    if (cluster.acf.own_part() != cluster.part) {
      return Status::InvalidArgument(
          "cluster " + std::to_string(i) + " ACF is on part " +
          std::to_string(cluster.acf.own_part()) + ", cluster claims part " +
          std::to_string(cluster.part));
    }
    clusters.push_back(std::move(cluster));
  }
  out.phase1.clusters = ClusterSet(layout, std::move(clusters));

  DAR_ASSIGN_OR_RETURN(size_t num_stats, ReadCount(r, 64, "tree stats"));
  out.phase1.tree_stats.reserve(num_stats);
  for (size_t i = 0; i < num_stats; ++i) {
    DAR_ASSIGN_OR_RETURN(AcfTreeStats stats, DecodeStats(r));
    out.phase1.tree_stats.push_back(stats);
  }
  DAR_ASSIGN_OR_RETURN(size_t num_outliers,
                       ReadCount(r, kMinAcfBytes, "outlier"));
  out.phase1.outliers.reserve(num_outliers);
  for (size_t i = 0; i < num_outliers; ++i) {
    DAR_ASSIGN_OR_RETURN(Acf acf, PersistPeer::DecodeAcf(r, layout));
    out.phase1.outliers.push_back(std::move(acf));
  }
  DAR_ASSIGN_OR_RETURN(size_t num_raw, ReadCount(r, 8, "raw cluster count"));
  out.phase1.raw_cluster_counts.reserve(num_raw);
  for (size_t i = 0; i < num_raw; ++i) {
    DAR_ASSIGN_OR_RETURN(uint64_t count, r.U64());
    out.phase1.raw_cluster_counts.push_back(static_cast<size_t>(count));
  }
  DAR_ASSIGN_OR_RETURN(out.phase1.effective_d0,
                       ReadF64Vec(r, "effective_d0"));
  DAR_ASSIGN_OR_RETURN(out.phase1.frequency_threshold, r.I64());
  DAR_ASSIGN_OR_RETURN(out.phase1.seconds, r.F64());

  // Phase2Result.
  DAR_ASSIGN_OR_RETURN(size_t num_cliques, ReadCount(r, 4, "clique"));
  out.phase2.cliques.reserve(num_cliques);
  for (size_t i = 0; i < num_cliques; ++i) {
    DAR_ASSIGN_OR_RETURN(std::vector<size_t> ids,
                         ReadIdVec(r, num_clusters, "clique"));
    out.phase2.cliques.push_back(std::move(ids));
  }
  DAR_ASSIGN_OR_RETURN(uint64_t nontrivial, r.U64());
  out.phase2.num_nontrivial_cliques = static_cast<size_t>(nontrivial);
  DAR_ASSIGN_OR_RETURN(out.phase2.cliques_truncated,
                       ReadBool(r, "cliques_truncated"));
  DAR_ASSIGN_OR_RETURN(uint64_t edges, r.U64());
  out.phase2.graph_edges = static_cast<size_t>(edges);
  DAR_ASSIGN_OR_RETURN(size_t num_rules, ReadCount(r, 32, "rule"));
  out.phase2.rules.reserve(num_rules);
  for (size_t i = 0; i < num_rules; ++i) {
    DistanceRule rule;
    DAR_ASSIGN_OR_RETURN(rule.antecedent,
                         ReadIdVec(r, num_clusters, "rule antecedent"));
    DAR_ASSIGN_OR_RETURN(rule.consequent,
                         ReadIdVec(r, num_clusters, "rule consequent"));
    DAR_ASSIGN_OR_RETURN(rule.degree, r.F64());
    DAR_ASSIGN_OR_RETURN(rule.cooccurrence_slack, r.F64());
    DAR_ASSIGN_OR_RETURN(rule.support_count, r.I64());
    out.phase2.rules.push_back(std::move(rule));
  }
  DAR_ASSIGN_OR_RETURN(out.phase2.rules_truncated,
                       ReadBool(r, "rules_truncated"));
  DAR_ASSIGN_OR_RETURN(out.phase2.seconds, r.F64());
  DAR_RETURN_IF_ERROR(r.ExpectEnd("results section"));
  return out;
}

}  // namespace persist
}  // namespace dar
