// dar::persist: wire primitive round-trips, container framing, section
// codec round-trips, checkpoint save/restore equality (bit-identical
// re-mining at any thread count, warm re-mining under changed thresholds),
// and the fault-injection sweep — every corruption mode must surface as a
// descriptive error Status, never a crash (run under `ctest -L ubsan` with
// -DDAR_SANITIZE=address,undefined).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "datagen/planted.h"
#include "persist/checkpoint_io.h"
#include "persist/codec.h"
#include "persist/wire.h"
#include "stream/streaming_miner.h"
#include "stream_test_peer.h"
#include "test_util.h"

namespace dar {
namespace {

using testutil::TempPath;

using persist::CheckpointReader;
using persist::CheckpointWriter;
using persist::SectionId;
using persist::WireReader;
using persist::WireWriter;

// ---------------------------------------------------------------------------
// Wire primitives.

TEST(WireTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-(int64_t{1} << 40));
  w.F64(-0.1);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(std::numeric_limits<double>::quiet_NaN());
  w.Str("hello");
  w.Str("");

  WireReader r(w.bytes());
  EXPECT_EQ(r.U8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.U32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32().ValueOrDie(), -42);
  EXPECT_EQ(r.I64().ValueOrDie(), -(int64_t{1} << 40));
  EXPECT_EQ(r.F64().ValueOrDie(), -0.1);  // bitwise round-trip
  EXPECT_TRUE(std::isinf(r.F64().ValueOrDie()));
  EXPECT_TRUE(std::isnan(r.F64().ValueOrDie()));
  EXPECT_EQ(r.Str().ValueOrDie(), "hello");
  EXPECT_EQ(r.Str().ValueOrDie(), "");
  EXPECT_TRUE(r.ExpectEnd("test blob").ok());
}

TEST(WireTest, LittleEndianOnTheWire) {
  WireWriter w;
  w.U32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[3]), 0x01);
}

TEST(WireTest, ShortReadsFailCleanly) {
  WireWriter w;
  w.U32(7);
  WireReader r(std::string_view(w.bytes()).substr(0, 2));
  auto got = r.U32();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsOutOfRange()) << got.status();

  // A string whose length prefix overruns the buffer.
  WireWriter w2;
  w2.U32(1000);  // length prefix, but no body follows
  WireReader r2(w2.bytes());
  EXPECT_TRUE(r2.Str().status().IsOutOfRange());

  WireReader r3(std::string_view("abc"));
  EXPECT_TRUE(r3.Slice(4).status().IsOutOfRange());
  auto sliced = r3.Slice(2);
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->remaining(), 2u);
  EXPECT_FALSE(r3.ExpectEnd("r3").ok()) << "one byte left";
}

TEST(WireTest, Crc32MatchesReferenceVector) {
  // The CRC-32/ISO-HDLC check value, shared with zlib/binascii.crc32 —
  // tools/dar_ckpt.py relies on this agreement.
  EXPECT_EQ(persist::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32(""), 0u);
}

// ---------------------------------------------------------------------------
// Container framing.

TEST(CheckpointIoTest, ContainerRoundTripsInMemory) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kSchema, "schema-bytes");
  writer.AddSection(SectionId::kBuilder, std::string(1000, 'x'));
  writer.AddSection(SectionId::kConfig, "");  // empty payload is legal

  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->format_version(), persist::kFormatVersion);
  ASSERT_EQ(reader->section_ids().size(), 3u);
  EXPECT_TRUE(reader->HasSection(SectionId::kSchema));
  EXPECT_FALSE(reader->HasSection(SectionId::kSnapshot));
  EXPECT_EQ(reader->Section(SectionId::kSchema).ValueOrDie(), "schema-bytes");
  EXPECT_EQ(reader->Section(SectionId::kBuilder).ValueOrDie(),
            std::string(1000, 'x'));
  EXPECT_EQ(reader->Section(SectionId::kConfig).ValueOrDie(), "");
  EXPECT_TRUE(
      reader->Section(SectionId::kSnapshot).status().IsNotFound());
}

TEST(CheckpointIoTest, UnknownSectionIdsAreTolerated) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kSchema, "s");
  writer.AddSection(static_cast<SectionId>(42), "future-content");
  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->section_ids()[1], 42u);
  EXPECT_EQ(persist::SectionName(42), "unknown");
}

TEST(CheckpointIoTest, Version1PayloadOnlyCrcStillReads) {
  // A version-1 container built by hand: section CRCs cover the payload
  // bytes only (the pre-v2 layout). The reader must keep accepting it.
  WireWriter w;
  w.Raw(std::string_view(persist::kCheckpointMagic,
                         sizeof(persist::kCheckpointMagic)));
  w.U32(1);  // format_version 1
  w.U32(1);  // section_count
  w.U32(persist::Crc32(std::string_view(w.bytes()).substr(0, 16)));
  const std::string payload = "v1-payload";
  w.U32(static_cast<uint32_t>(SectionId::kConfig));
  w.U64(payload.size());
  w.Raw(payload);
  w.U32(persist::Crc32(payload));

  auto reader = CheckpointReader::Parse(std::move(w).Take());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->format_version(), 1u);
  EXPECT_EQ(reader->Section(SectionId::kConfig).ValueOrDie(), payload);
}

TEST(CheckpointIoTest, SectionIdCorruptionIsDetected) {
  // The v2 section CRC covers the id + length header: flipping a bit in
  // an (optional) section's id must fail the parse, not silently turn
  // the section into an ignorable unknown one.
  CheckpointWriter writer;
  writer.AddSection(SectionId::kShards, "shard-bytes");
  std::string bytes = writer.Serialize();
  bytes[persist::kHeaderBytes + 2] ^= 0x01;  // third byte of the u32 id
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos)
      << reader.status();
}

TEST(CheckpointIoTest, DuplicateSectionsRefused) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kConfig, "a");
  writer.AddSection(SectionId::kConfig, "b");
  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("duplicate"), std::string::npos);
}

TEST(CheckpointIoTest, FileRoundTripIsAtomic) {
  const std::string path = TempPath("ckpt_io_test.darckpt");
  CheckpointWriter writer;
  writer.AddSection(SectionId::kConfig, "payload");
  size_t bytes = 0;
  ASSERT_TRUE(writer.WriteToFile(path, &bytes).ok());
  EXPECT_GT(bytes, persist::kHeaderBytes);
  // No temp file may linger after a successful write.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  auto reader = CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->total_bytes(), bytes);
  std::remove(path.c_str());
}

TEST(CheckpointIoTest, OpenMissingFileIsIOError) {
  auto reader =
      CheckpointReader::Open(TempPath("no_such_ckpt.darckpt"));
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsIOError());
  EXPECT_NE(reader.status().message().find("no_such_ckpt"),
            std::string::npos)
      << "error must name the file: " << reader.status();
}

// ---------------------------------------------------------------------------
// Section codec round-trips.

TEST(CodecTest, SchemaSectionRoundTrips) {
  auto schema = Schema::Make({{"Age", AttributeKind::kInterval},
                              {"City", AttributeKind::kNominal},
                              {"Salary", AttributeKind::kInterval}});
  ASSERT_TRUE(schema.ok());
  const std::string bytes = persist::EncodeSchemaSection(*schema);
  auto back = persist::DecodeSchemaSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == *schema);
  EXPECT_EQ(persist::EncodeSchemaSection(*back), bytes);
}

TEST(CodecTest, PartitionSectionRoundTrips) {
  auto schema = Schema::Make({{"Lat", AttributeKind::kInterval},
                              {"Lon", AttributeKind::kInterval},
                              {"Kind", AttributeKind::kNominal}});
  ASSERT_TRUE(schema.ok());
  auto partition = AttributePartition::Make(
      *schema, {{{"Lat", "Lon"}, MetricKind::kEuclidean},
                {{"Kind"}, MetricKind::kDiscrete}});
  ASSERT_TRUE(partition.ok());
  const std::string bytes = persist::EncodePartitionSection(*partition);
  auto back = persist::DecodePartitionSection(bytes, *schema);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_parts(), 2u);
  EXPECT_EQ(back->part(0).columns, partition->part(0).columns);
  EXPECT_EQ(back->part(0).metric, MetricKind::kEuclidean);
  EXPECT_EQ(back->part(1).label, partition->part(1).label);
  // A partition referencing columns outside the schema is refused.
  auto narrow = Schema::Make({{"Lat", AttributeKind::kInterval}});
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(persist::DecodePartitionSection(bytes, *narrow).ok());
}

TEST(CodecTest, DictionariesSectionRoundTrips) {
  std::vector<Dictionary> dicts(2);
  EXPECT_EQ(dicts[0].Encode("red"), 0.0);
  EXPECT_EQ(dicts[0].Encode("green"), 1.0);
  EXPECT_EQ(dicts[1].Encode("madrid"), 0.0);
  const std::string bytes = persist::EncodeDictionariesSection(dicts);
  auto back = persist::DecodeDictionariesSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].Lookup("green").ValueOrDie(), 1.0);
  EXPECT_EQ((*back)[0].Decode(0.0).ValueOrDie(), "red");
  EXPECT_EQ((*back)[1].Decode(0.0).ValueOrDie(), "madrid");
}

TEST(CodecTest, ConfigSectionRoundTripsEveryKnob) {
  DarConfig config;
  config.memory_budget_bytes = 123456;
  config.frequency_fraction = 0.07;
  config.outlier_fraction = 0.5;
  config.initial_diameters = {1.5, 2.5};
  config.tree.branching_factor = 9;
  config.tree.leaf_capacity = 3;
  config.tree.threshold_growth = 1.75;
  config.refine_clusters = true;
  config.metric = ClusterMetric::kD3AvgIntra;
  config.degree_threshold = 42.0;
  config.degree_thresholds = {10.0, 20.0};
  config.density_thresholds = {3.0, 4.0};
  config.phase2_leniency = 3.5;
  config.prune_low_density_images = false;
  config.max_antecedent = 5;
  config.max_consequent = 4;
  config.max_rules = 777;
  config.max_cliques = 888;
  config.count_rule_support = true;
  const std::string bytes = persist::EncodeConfigSection(config);
  auto back = persist::DecodeConfigSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  // Re-encoding the decoded config must reproduce the bytes — which pins
  // every serialized knob without writing one EXPECT per field.
  EXPECT_EQ(persist::EncodeConfigSection(*back), bytes);
  EXPECT_EQ(back->metric, ClusterMetric::kD3AvgIntra);
  EXPECT_EQ(back->initial_diameters, config.initial_diameters);
}

TEST(CodecTest, ConfigSectionRejectsInvalidKnobs) {
  DarConfig config;
  std::string bytes = persist::EncodeConfigSection(config);
  // Corrupt the frequency_fraction (offset 8, after memory_budget) into a
  // negative value: the CRC layer is not involved here — the decoder's own
  // DarConfig::Validate must refuse.
  WireWriter w;
  w.F64(-0.5);
  for (int i = 0; i < 8; ++i) bytes[8 + i] = w.bytes()[i];
  auto back = persist::DecodeConfigSection(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Stream checkpoint end-to-end: save, restore, re-mine, fault-inject.

PlantedDataset TestData() {
  PlantedDataSpec spec = WbcdLikeSpec(/*num_attrs=*/3, /*clusters_per_attr=*/3,
                                      /*outlier_fraction=*/0.05, /*seed=*/77);
  auto data = GeneratePlanted(spec, 1500, 78);
  EXPECT_TRUE(data.ok()) << data.status();
  return *std::move(data);
}

DarConfig TestConfig() {
  DarConfig config;
  config.frequency_fraction = 0.05;
  config.initial_diameters.assign(3, 80.0);
  config.degree_threshold = 150.0;
  return config;
}

Result<Session> TestSession(int threads = 1) {
  return Session::Builder()
      .WithConfig(TestConfig())
      .WithThreads(threads)
      .Build();
}

// Cadence disabled: tests publish explicitly via Remine().
StreamConfig ManualRemine() {
  StreamConfig sc;
  sc.remine_every_rows = 0;
  return sc;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void ExpectSameRules(const std::vector<DistanceRule>& a,
                     const std::vector<DistanceRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].antecedent, b[i].antecedent);
    EXPECT_EQ(a[i].consequent, b[i].consequent);
    EXPECT_EQ(a[i].degree, b[i].degree);  // bitwise
    EXPECT_EQ(a[i].cooccurrence_slack, b[i].cooccurrence_slack);
  }
}

// Builds a stream over the test data, ingests everything, publishes one
// snapshot and saves a checkpoint; returns the checkpoint path.
std::string MakeCheckpoint(const Session& session, const PlantedDataset& data,
                           const std::string& name) {
  auto stream = session.OpenStream(data.relation.schema(), data.partition,
                                   ManualRemine());
  EXPECT_TRUE(stream.ok()) << stream.status();
  EXPECT_TRUE((*stream)->Ingest(data.relation).ok());
  EXPECT_TRUE((*stream)->Remine().ok());
  const std::string path = TempPath(name);
  EXPECT_TRUE((*stream)->SaveCheckpoint(path).ok());
  return path;
}

TEST(StreamCheckpointTest, SaveRestoreSaveIsByteIdentical) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  const std::string path = MakeCheckpoint(*session, data, "roundtrip.ckpt");

  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->stream->rows_ingested(),
            static_cast<int64_t>(data.relation.num_rows()));
  EXPECT_EQ(restored->stream->generation(), 1u);
  ASSERT_NE(StreamTestPeer::Snapshot(*restored->stream), nullptr);
  EXPECT_TRUE(restored->schema == data.relation.schema());

  // The restored stream's state re-serializes to the exact same bytes: the
  // decode-encode cycle loses nothing.
  const std::string path2 = TempPath("roundtrip2.ckpt");
  ASSERT_TRUE(restored->stream->SaveCheckpoint(path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(StreamCheckpointTest, RestoredStreamQueriesWithoutReingesting) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  const std::string path = MakeCheckpoint(*session, data, "query.ckpt");

  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // The republished snapshot serves point queries immediately.
  auto hits =
      StreamTestPeer::Query(*restored->stream, data.relation.Row(0));
  ASSERT_TRUE(hits.ok()) << hits.status();
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, RemineAfterRestoreIsBitIdenticalAtAnyThreadCount) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualRemine());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  auto original = (*stream)->Remine();
  ASSERT_TRUE(original.ok());
  ASSERT_GT((*original)->rules().size(), 0u);
  const std::string path = TempPath("threads.ckpt");
  ASSERT_TRUE((*stream)->SaveCheckpoint(path).ok());

  for (int threads : {1, 4}) {
    auto other = TestSession(threads);
    ASSERT_TRUE(other.ok());
    auto restored = other->RestoreCheckpoint(path);
    ASSERT_TRUE(restored.ok()) << restored.status();
    auto remined = restored->stream->Remine();
    ASSERT_TRUE(remined.ok()) << remined.status();
    ExpectSameRules((*remined)->rules(), (*original)->rules());
    EXPECT_EQ((*remined)->phase1().effective_d0,
              (*original)->phase1().effective_d0);
    EXPECT_EQ((*remined)->phase2().cliques, (*original)->phase2().cliques);
  }
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, WarmRemineUnderNewThresholdsNeedsNoData) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  const std::string path = MakeCheckpoint(*session, data, "warm.ckpt");

  // Restore under a *stricter* frequency threshold: the summaries are
  // pre-filter, so the new threshold applies without any data access.
  DarConfig warm_config = TestConfig();
  warm_config.frequency_fraction = 0.25;
  auto warm_session =
      Session::Builder().WithConfig(warm_config).Build();
  ASSERT_TRUE(warm_session.ok());
  auto restored = warm_session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // The saved config is reported so callers can tell they diverged.
  EXPECT_EQ(restored->saved_config.frequency_fraction, 0.05);

  auto remined = restored->stream->Remine();
  ASSERT_TRUE(remined.ok()) << remined.status();
  const int64_t rows = restored->stream->rows_ingested();
  EXPECT_EQ((*remined)->phase1().frequency_threshold,
            static_cast<int64_t>(std::ceil(0.25 * double(rows))));
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, CheckpointWithoutSnapshotRestores) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualRemine());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  // No Remine: generation 0, nothing published.
  const std::string path = TempPath("nosnap.ckpt");
  ASSERT_TRUE((*stream)->SaveCheckpoint(path).ok());
  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->stream->generation(), 0u);
  EXPECT_EQ(StreamTestPeer::Snapshot(*restored->stream), nullptr);
  // But the trees are live: an immediate Remine works.
  EXPECT_TRUE(restored->stream->Remine().ok());
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, DictionariesTravelWithTheCheckpoint) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualRemine());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  std::vector<Dictionary> dicts(1);
  dicts[0].Encode("alpha");
  dicts[0].Encode("beta");
  const std::string path = TempPath("dicts.ckpt");
  ASSERT_TRUE(session->SaveCheckpoint(**stream, path, dicts).ok());
  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->dictionaries.size(), 1u);
  EXPECT_EQ(restored->dictionaries[0].Decode(1.0).ValueOrDie(), "beta");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault injection: every corruption is a clean, descriptive Status.

// Full restore attempt over possibly-corrupt bytes; must never crash.
Status TryRestore(const std::string& bytes) {
  const std::string path = TempPath("fault_injected.ckpt");
  WriteFileBytes(path, bytes);
  auto restored = StreamingMiner::RestoreFromFile(
      path, TestConfig(), /*executor=*/nullptr, /*registry=*/nullptr);
  std::remove(path.c_str());
  return restored.ok() ? Status::OK() : restored.status();
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new PlantedDataset(TestData());
    auto session = TestSession();
    ASSERT_TRUE(session.ok());
    const std::string path =
        MakeCheckpoint(*session, *data_, "fault_base.ckpt");
    bytes_ = new std::string(ReadFileBytes(path));
    std::remove(path.c_str());
    ASSERT_GT(bytes_->size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete bytes_;
    data_ = nullptr;
    bytes_ = nullptr;
  }
  static PlantedDataset* data_;
  static std::string* bytes_;
};

PlantedDataset* FaultInjectionTest::data_ = nullptr;
std::string* FaultInjectionTest::bytes_ = nullptr;

TEST_F(FaultInjectionTest, IntactBaselineRestores) {
  EXPECT_TRUE(TryRestore(*bytes_).ok());
}

TEST_F(FaultInjectionTest, TruncationsAtEveryLayerFailCleanly) {
  const size_t n = bytes_->size();
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{19}, size_t{20},
                     size_t{21}, n / 4, n / 2, n - 100, n - 1}) {
    Status s = TryRestore(bytes_->substr(0, len));
    EXPECT_FALSE(s.ok()) << "truncation to " << len << " bytes must fail";
    EXPECT_FALSE(s.message().empty());
  }
}

TEST_F(FaultInjectionTest, BitFlipsAnywhereFailCleanly) {
  // A flip in any payload byte trips that section's CRC; a flip in the
  // framing (magic, header, ids, lengths, the CRCs themselves) trips the
  // framing checks. Sample the whole file with a prime stride.
  for (size_t pos = 0; pos < bytes_->size(); pos += 131) {
    for (int bit : {0, 7}) {
      std::string corrupt = *bytes_;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      Status s = TryRestore(corrupt);
      EXPECT_FALSE(s.ok()) << "flip at byte " << pos << " bit " << bit
                           << " must be detected";
    }
  }
}

TEST_F(FaultInjectionTest, BadMagicNamesTheProblem) {
  std::string corrupt = *bytes_;
  corrupt[0] = 'X';
  Status s = TryRestore(corrupt);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, FutureFormatVersionIsRefusedWithUpgradeHint) {
  // Raise format_version to 99 and fix up the header CRC so only the
  // version check can object.
  std::string corrupt = *bytes_;
  corrupt[8] = 99;
  const uint32_t crc = persist::Crc32(std::string_view(corrupt).substr(0, 16));
  for (int i = 0; i < 4; ++i) {
    corrupt[16 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  Status s = TryRestore(corrupt);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("newer"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, TrailingGarbageIsRefused)
{
  Status s = TryRestore(*bytes_ + std::string(13, 'z'));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, MissingSectionIsRefused) {
  // Rebuild the container without the builder section: framing is valid,
  // CRCs all pass, but the restore must notice the missing section.
  auto reader = CheckpointReader::Parse(*bytes_);
  ASSERT_TRUE(reader.ok());
  CheckpointWriter writer;
  for (uint32_t id : reader->section_ids()) {
    if (id == static_cast<uint32_t>(SectionId::kBuilder)) continue;
    writer.AddSection(static_cast<SectionId>(id),
                      std::string(reader->Section(static_cast<SectionId>(id))
                                      .ValueOrDie()));
  }
  Status s = TryRestore(writer.Serialize());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("builder"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, SwappedSectionPayloadsAreRefused) {
  // Put the schema payload in the partition slot and vice versa: every CRC
  // is valid, so only the content decoders can (and must) object.
  auto reader = CheckpointReader::Parse(*bytes_);
  ASSERT_TRUE(reader.ok());
  CheckpointWriter writer;
  for (uint32_t id : reader->section_ids()) {
    SectionId sid = static_cast<SectionId>(id);
    SectionId source = sid;
    if (sid == SectionId::kSchema) source = SectionId::kPartition;
    if (sid == SectionId::kPartition) source = SectionId::kSchema;
    writer.AddSection(sid,
                      std::string(reader->Section(source).ValueOrDie()));
  }
  EXPECT_FALSE(TryRestore(writer.Serialize()).ok());
}

}  // namespace
}  // namespace dar
