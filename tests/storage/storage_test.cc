// Tests for Partition, KvTable/KvStore, and ObservationLog.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "storage/kv_store.h"
#include "storage/observation_log.h"
#include "storage/partition.h"

namespace velox {
namespace {

Value Bytes(std::initializer_list<uint8_t> init) { return Value(init); }

TEST(PartitionTest, PutGet) {
  Partition p;
  p.Put(1, Bytes({1, 2, 3}));
  auto v = p.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Bytes({1, 2, 3}));
  EXPECT_TRUE(p.Get(2).status().IsNotFound());
}

TEST(PartitionTest, OverwriteReplacesValue) {
  Partition p;
  p.Put(1, Bytes({1}));
  p.Put(1, Bytes({2}));
  EXPECT_EQ(p.Get(1).value(), Bytes({2}));
  EXPECT_EQ(p.size(), 1u);
}

TEST(PartitionTest, ContainsAndSize) {
  Partition p;
  EXPECT_FALSE(p.Contains(5));
  p.Put(5, Bytes({9}));
  EXPECT_TRUE(p.Contains(5));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.SizeBytes(), sizeof(Key) + 1);
}

TEST(PartitionTest, ScanVisitsAllEntries) {
  Partition p;
  for (Key k = 0; k < 10; ++k) p.Put(k, Bytes({static_cast<uint8_t>(k)}));
  std::set<Key> seen;
  p.Scan([&seen](Key k, const Value&) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PartitionTest, DumpCopiesEverything) {
  Partition p;
  p.Put(1, Bytes({1}));
  p.Put(2, Bytes({2}));
  auto rows = p.Dump();
  EXPECT_EQ(rows.size(), 2u);
}

TEST(PartitionTest, ConcurrentWritersDontLoseEntries) {
  Partition p;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&p, t] {
      for (Key k = 0; k < 1000; ++k) {
        p.Put(static_cast<Key>(t) * 10000 + k, Bytes({1}));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(p.size(), 4000u);
}

TEST(KvTableTest, RoutesKeysAcrossPartitions) {
  KvTable table("t", 8);
  EXPECT_EQ(table.num_partitions(), 8);
  for (Key k = 0; k < 500; ++k) table.Put(k, Bytes({1}));
  EXPECT_EQ(table.size(), 500u);
  // No partition should hold everything.
  size_t max_partition = 0;
  for (int32_t i = 0; i < 8; ++i) {
    max_partition = std::max(max_partition, table.partition(i)->size());
  }
  EXPECT_LT(max_partition, 200u);
}

TEST(KvTableTest, GetRoutesToSamePartitionAsPut) {
  KvTable table("t", 4);
  for (Key k = 100; k < 200; ++k) table.Put(k, Bytes({static_cast<uint8_t>(k)}));
  for (Key k = 100; k < 200; ++k) {
    auto v = table.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(v.value()[0], static_cast<uint8_t>(k));
  }
}

TEST(KvTableTest, SnapshotSeesAllRows) {
  KvTable table("t", 4);
  for (Key k = 0; k < 50; ++k) table.Put(k, Bytes({1}));
  auto rows = table.Snapshot();
  EXPECT_EQ(rows.size(), 50u);
}

TEST(KvStoreTest, CreateGetDropTables) {
  KvStore store;
  auto t = store.CreateTable("users", 4);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(store.CreateTable("users").status().IsAlreadyExists());
  EXPECT_TRUE(store.GetTable("users").ok());
  EXPECT_TRUE(store.GetTable("nope").status().IsNotFound());
  ASSERT_TRUE(store.DropTable("users").ok());
  EXPECT_TRUE(store.DropTable("users").IsNotFound());
}

TEST(KvStoreTest, GetOrCreateIdempotent) {
  KvStore store;
  KvTable* a = store.GetOrCreateTable("t");
  KvTable* b = store.GetOrCreateTable("t");
  EXPECT_EQ(a, b);
}

TEST(KvStoreTest, TableNamesSorted) {
  KvStore store;
  store.GetOrCreateTable("zeta");
  store.GetOrCreateTable("alpha");
  auto names = store.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(KvStoreTest, TotalSizeBytesSumsTables) {
  KvStore store;
  store.GetOrCreateTable("a")->Put(1, Bytes({1, 2}));
  store.GetOrCreateTable("b")->Put(2, Bytes({3}));
  EXPECT_EQ(store.TotalSizeBytes(), 2 * sizeof(Key) + 3);
}

TEST(ObservationTest, SerializationRoundTrip) {
  Observation obs{42, 7, 4.5, 123456};
  auto bytes = obs.Serialize();
  auto back = Observation::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), obs);
}

TEST(ObservationTest, DeserializeTruncatedFails) {
  Observation obs{1, 2, 3.0, 4};
  auto bytes = obs.Serialize();
  bytes.resize(bytes.size() - 1);
  EXPECT_TRUE(Observation::Deserialize(bytes).status().IsOutOfRange());
}

TEST(ObservationLogTest, AppendAssignsDenseSequence) {
  ObservationLog log;
  EXPECT_EQ(log.Append(Observation{1, 1, 1.0, 0}), 0u);
  EXPECT_EQ(log.Append(Observation{2, 2, 2.0, 1}), 1u);
  EXPECT_EQ(log.NextSeq(), 2u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(ObservationLogTest, ReadFromReturnsSuffix) {
  ObservationLog log;
  for (uint64_t i = 0; i < 10; ++i) {
    log.Append(Observation{i, i, static_cast<double>(i), 0});
  }
  auto tail = log.ReadFrom(7);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].uid, 7u);
  EXPECT_TRUE(log.ReadFrom(10).empty());
  EXPECT_TRUE(log.ReadFrom(999).empty());
}

TEST(ObservationLogTest, ReadRangeClampsBounds) {
  ObservationLog log;
  for (uint64_t i = 0; i < 5; ++i) log.Append(Observation{i, 0, 0.0, 0});
  EXPECT_EQ(log.ReadRange(1, 3).size(), 2u);
  EXPECT_EQ(log.ReadRange(0, 100).size(), 5u);
  EXPECT_TRUE(log.ReadRange(3, 3).empty());
  EXPECT_TRUE(log.ReadRange(4, 2).empty());
}

TEST(ObservationLogTest, CompactDropsPrefixKeepsSequenceNumbers) {
  ObservationLog log;
  for (uint64_t i = 0; i < 10; ++i) {
    log.Append(Observation{i, 0, 0.0, static_cast<int64_t>(i)});
  }
  EXPECT_EQ(log.Compact(4), 4u);
  EXPECT_EQ(log.FirstSeq(), 4u);
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.NextSeq(), 10u);
  // Sequence numbering is preserved: ReadFrom(4) starts at uid 4.
  auto tail = log.ReadFrom(4);
  ASSERT_EQ(tail.size(), 6u);
  EXPECT_EQ(tail[0].uid, 4u);
  // Reads below the compaction point see nothing extra.
  EXPECT_EQ(log.ReadFrom(0).size(), 6u);
  EXPECT_TRUE(log.ReadRange(0, 4).empty());
  EXPECT_EQ(log.ReadRange(3, 6).size(), 2u);  // seqs 4, 5
  // New appends continue the original numbering.
  EXPECT_EQ(log.Append(Observation{99, 0, 0.0, 0}), 10u);
}

TEST(ObservationLogTest, CompactIsIdempotentAndClampable) {
  ObservationLog log;
  for (uint64_t i = 0; i < 5; ++i) log.Append(Observation{i, 0, 0.0, 0});
  EXPECT_EQ(log.Compact(3), 3u);
  EXPECT_EQ(log.Compact(3), 0u);   // already compacted
  EXPECT_EQ(log.Compact(1), 0u);   // before the base: no-op
  EXPECT_EQ(log.Compact(100), 2u); // beyond the end: drops everything left
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.NextSeq(), 5u);
  EXPECT_EQ(log.Append(Observation{7, 0, 0.0, 0}), 5u);
}

TEST(ObservationLogTest, ConcurrentAppendsGetDistinctSeqs) {
  ObservationLog log;
  std::vector<std::thread> workers;
  std::vector<std::vector<uint64_t>> seqs(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&log, &seqs, t] {
      for (int i = 0; i < 1000; ++i) {
        seqs[t].push_back(log.Append(Observation{0, 0, 0.0, 0}));
      }
    });
  }
  for (auto& w : workers) w.join();
  std::set<uint64_t> all;
  for (const auto& v : seqs) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 4000u);
  EXPECT_EQ(log.NextSeq(), 4000u);
}

}  // namespace
}  // namespace velox
