#ifndef DAR_PERSIST_PERSIST_PEER_H_
#define DAR_PERSIST_PERSIST_PEER_H_

#include <memory>

#include "birch/acf.h"
#include "birch/acf_tree.h"
#include "birch/cf.h"
#include "common/result.h"
#include "core/phase1_builder.h"
#include "persist/wire.h"

namespace dar {

/// Serialization backdoor: the one `friend` the summary classes grant to
/// dar::persist, mirroring the InvariantTestPeer idiom. All methods are
/// defined in persist/codec.cc; everything else in the library goes
/// through the public codec functions in persist/codec.h, so the privates
/// of CfVector/Acf/AcfTree/Phase1Builder stay encapsulated everywhere
/// except this single, audited seam.
///
/// Decoding constructs objects through their public constructors first and
/// only then fills in state, so no code path ever observes a
/// partially-initialized tree: a decode either returns a fully formed
/// object or a Status, never a half-written one.
struct PersistPeer {
  // --- CfVector ---
  static void EncodeCf(const CfVector& cf, persist::WireWriter& w);
  static Result<CfVector> DecodeCf(persist::WireReader& r);

  // --- Acf (validated against `layout`) ---
  static void EncodeAcf(const Acf& acf, persist::WireWriter& w);
  static Result<Acf> DecodeAcf(persist::WireReader& r,
                               std::shared_ptr<const AcfLayout> layout);

  // --- AcfTree (exact structural walk; see codec.cc for the layout) ---
  static void EncodeTree(const AcfTree& tree, persist::WireWriter& w);
  static Result<std::unique_ptr<AcfTree>> DecodeTree(
      persist::WireReader& r, std::shared_ptr<const AcfLayout> layout,
      size_t expect_part);

  // --- Phase1Builder ---
  static void EncodeBuilder(const Phase1Builder& builder,
                            persist::WireWriter& w);
  static Result<Phase1Builder> DecodeBuilder(
      persist::WireReader& r, const DarConfig& config, const Schema& schema,
      const AttributePartition& partition, Executor* executor,
      telemetry::TelemetryContext telemetry);

 private:
  // Node-recursion helpers. AcfTree::Node is private, so these are member
  // templates: the template parameter carries the type into the (friend)
  // definitions in codec.cc without naming it here.
  template <typename Node>
  static void EncodeNode(const Node& node, persist::WireWriter& w);
  template <typename Node>
  static Result<std::unique_ptr<Node>> DecodeNode(
      persist::WireReader& r, const std::shared_ptr<const AcfLayout>& layout,
      size_t own_part, int depth, size_t& num_nodes, size_t& num_leaf_entries);
};

}  // namespace dar

#endif  // DAR_PERSIST_PERSIST_PEER_H_
