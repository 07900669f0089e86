// Durable user-weight serving state: crash-recovery properties of the
// journal (every-byte-offset truncation), snapshot + suffix replay
// equivalence (also under concurrent observers), one snapshot per
// cadence crossing, and kill-and-restart VeloxServer recovery.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shell.h"
#include "core/velox_server.h"
#include "data/movielens.h"
#include "storage/snapshot.h"

namespace velox {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

// A fresh per-test durability directory (fixed journal file names mean
// stale files from a previous run would be replayed as real state).
std::string DurabilityDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  for (int n = 0; n < 8; ++n) {
    std::remove((dir + "/user_weights_node" + std::to_string(n) + ".wal").c_str());
    std::remove((dir + "/user_weights_node" + std::to_string(n) + ".snap").c_str());
  }
  return dir;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

UserWeightStoreOptions SmallStoreOptions() {
  UserWeightStoreOptions options;
  options.dim = 3;
  options.num_stripes = 4;
  return options;
}

// --- property: recovery from ANY torn write is a valid record prefix ---

TEST(DurabilityPropertyTest, RecoveryFromEveryTruncationIsAValidPrefix) {
  std::string wal_path = TempPath("dur_prop.wal");
  // Drive a pseudo-random mutation mix (seeds, online updates, a
  // version reset now and then) through a journaled store.
  {
    UserWeightJournalOptions jopts;
    jopts.wal_path = wal_path;
    auto journal = UserWeightJournal::Open(jopts);
    ASSERT_TRUE(journal.ok());
    Bootstrapper boot(3);
    UserWeightStore store(SmallStoreOptions(), &boot);
    store.AttachJournal(journal->get());
    uint64_t s = 88172645463325252ULL;  // xorshift64: deterministic mix
    auto next = [&]() {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (int i = 0; i < 30; ++i) {
      uint64_t roll = next() % 10;
      uint64_t uid = next() % 6;
      DenseVector v{static_cast<double>(next() % 100) / 10.0, 1.0, -0.5};
      if (roll < 2) {
        store.SeedUser(uid, v, 1);
      } else if (roll < 9) {
        ASSERT_TRUE(
            store.ApplyObservation(uid, v, static_cast<double>(next() % 50) / 10.0).ok());
      } else {
        FactorMap trained;
        trained[uid] = v;
        store.ResetForNewVersion(trained, 2);
      }
    }
  }
  // Ground truth: the full payload sequence as written.
  std::vector<std::vector<uint8_t>> full;
  {
    auto wal = WriteAheadLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    full = (*wal)->TakeRecoveredPayloads();
  }
  ASSERT_GE(full.size(), 30u);  // every mutation journaled
  std::vector<uint8_t> bytes = ReadFileBytes(wal_path);
  ASSERT_GT(bytes.size(), 0u);

  // Truncate the log at EVERY byte offset — simulating a crash torn
  // mid-write at any point — and require: open never fails, the
  // recovered suffix is an exact prefix of the full sequence, and
  // every recovered record replays cleanly into a fresh store.
  std::string trunc_path = TempPath("dur_prop_trunc.wal");
  size_t last_count = 0;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    {
      std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(len));
    }
    UserWeightJournalOptions jopts;
    jopts.wal_path = trunc_path;
    auto journal = UserWeightJournal::Open(jopts);
    ASSERT_TRUE(journal.ok()) << "truncated at byte " << len;
    auto recovery = (*journal)->TakeRecovered();
    ASSERT_LE(recovery.suffix.size(), full.size()) << "truncated at byte " << len;
    for (size_t i = 0; i < recovery.suffix.size(); ++i) {
      ASSERT_EQ(recovery.suffix[i].Serialize(), full[i])
          << "truncated at byte " << len << ", record " << i;
    }
    // Longer physical prefix can never recover fewer records.
    ASSERT_GE(recovery.suffix.size(), last_count) << "truncated at byte " << len;
    last_count = recovery.suffix.size();
    Bootstrapper boot(3);
    UserWeightStore store(SmallStoreOptions(), &boot);
    for (const auto& record : recovery.suffix) {
      ASSERT_TRUE(store.ApplyWalRecord(record).ok()) << "truncated at byte " << len;
    }
  }
  EXPECT_EQ(last_count, full.size());  // untruncated file loses nothing
  std::remove(wal_path.c_str());
  std::remove(trunc_path.c_str());
}

TEST(DurabilityPropertyTest, MismatchedRecordRejectedNotFatal) {
  Bootstrapper boot(3);
  UserWeightStore store(SmallStoreOptions(), &boot);
  UserWeightWalRecord record;
  record.kind = UserWeightWalRecord::Kind::kSeed;
  record.uid = 1;
  record.weights = DenseVector{1.0, 2.0, 3.0, 4.0, 5.0};  // dim 5 != 3
  EXPECT_FALSE(store.ApplyWalRecord(record).ok());
  EXPECT_EQ(store.num_users(), 0u);
}

// --- snapshot + suffix replay ≡ genesis replay ≡ original state ---

TEST(DurabilityEquivalenceTest, SnapshotPlusSuffixMatchesGenesisReplay) {
  UserWeightJournalOptions jopts;
  jopts.wal_path = TempPath("dur_equiv.wal");
  jopts.snapshot_path = TempPath("dur_equiv.snap");
  jopts.snapshot_every = 7;
  std::vector<uint8_t> blob_original;
  {
    auto journal = UserWeightJournal::Open(jopts);
    ASSERT_TRUE(journal.ok());
    Bootstrapper boot(3);
    UserWeightStore store(SmallStoreOptions(), &boot);
    store.AttachJournal(journal->get());
    for (uint64_t u = 0; u < 5; ++u) {
      store.SeedUser(u, DenseVector{0.1 * u, 1.0, -0.5}, 1);
    }
    for (int i = 0; i < 40; ++i) {
      uint64_t uid = static_cast<uint64_t>(i) % 6;  // uid 5 cold-starts mid-stream
      DenseVector f{1.0, 0.1 * (i % 7), -0.2 * (i % 3)};
      ASSERT_TRUE(store.ApplyObservation(uid, f, 0.5 + 0.1 * i).ok());
      ASSERT_TRUE(store.MaybeSnapshot().ok());  // the observe-path cadence hook
    }
    EXPECT_GT((*journal)->snapshots_written(), 0u);
    blob_original = store.SerializeState();
  }
  // Path B: newest snapshot + WAL suffix (the production recovery).
  {
    auto journal = UserWeightJournal::Open(jopts);
    ASSERT_TRUE(journal.ok());
    auto recovery = (*journal)->TakeRecovered();
    ASSERT_TRUE(recovery.snapshot_loaded);
    EXPECT_FALSE(recovery.suffix.empty());
    EXPECT_LT(recovery.suffix.size(), recovery.wal_records);  // bounded replay
    Bootstrapper boot(3);
    UserWeightStore store(SmallStoreOptions(), &boot);
    ASSERT_TRUE(store.RestoreState(recovery.snapshot_state).ok());
    for (const auto& record : recovery.suffix) {
      ASSERT_TRUE(store.ApplyWalRecord(record).ok());
    }
    EXPECT_EQ(store.SerializeState(), blob_original);
  }
  // Path C: full replay from genesis (no snapshot consulted).
  {
    auto wal = WriteAheadLog::Open(jopts.wal_path);
    ASSERT_TRUE(wal.ok());
    Bootstrapper boot(3);
    UserWeightStore store(SmallStoreOptions(), &boot);
    for (const auto& payload : (*wal)->TakeRecoveredPayloads()) {
      auto record = UserWeightWalRecord::Deserialize(payload);
      ASSERT_TRUE(record.ok());
      ASSERT_TRUE(store.ApplyWalRecord(*record).ok());
    }
    EXPECT_EQ(store.SerializeState(), blob_original);
  }
  std::remove(jopts.wal_path.c_str());
  std::remove(jopts.snapshot_path.c_str());
}

// --- concurrent observers ---

// Replays a journal's whole WAL from genesis into a fresh store.
std::vector<uint8_t> GenesisReplay(const std::string& wal_path,
                                   const UserWeightStoreOptions& options) {
  auto wal = WriteAheadLog::Open(wal_path);
  VELOX_CHECK_OK(wal.status());
  Bootstrapper boot(options.dim);
  UserWeightStore store(options, &boot);
  for (const auto& payload : (*wal)->TakeRecoveredPayloads()) {
    auto record = UserWeightWalRecord::Deserialize(payload);
    VELOX_CHECK_OK(record.status());
    VELOX_CHECK_OK(store.ApplyWalRecord(*record));
  }
  return store.SerializeState();
}

DenseVector ObservedFeatures(size_t dim, uint64_t t, uint64_t i) {
  DenseVector f(dim);
  for (size_t j = 0; j < dim; ++j) {
    f[j] = 0.1 * static_cast<double>((t * 7 + i * 13 + j * 3) % 29) - 1.4;
  }
  return f;
}

// Observers on different stripes journal and feed the bootstrapper's
// running sum concurrently; the sum is in the image (its last bytes),
// so replay matches only if the sum accumulated in record order.
TEST(DurabilityConcurrencyTest, ConcurrentObserversReplayToTheLiveState) {
  constexpr uint64_t kThreads = 3;
  constexpr uint64_t kObserves = 3000;
  constexpr uint64_t kUsersPerThread = 500;
  UserWeightStoreOptions options;
  options.dim = 10;
  options.num_stripes = 32;
  for (int round = 0; round < 10; ++round) {
    UserWeightJournalOptions jopts;
    jopts.wal_path = TempPath("dur_concurrent.wal");
    jopts.wal.sync = WalSyncPolicy::kNone;
    auto journal = UserWeightJournal::Open(jopts);
    ASSERT_TRUE(journal.ok());
    std::vector<uint8_t> live;
    {
      Bootstrapper boot(options.dim);
      UserWeightStore store(options, &boot);
      store.AttachJournal(journal->get());
      std::vector<std::thread> observers;
      for (uint64_t t = 0; t < kThreads; ++t) {
        observers.emplace_back([&store, &options, t] {
          for (uint64_t i = 0; i < kObserves; ++i) {
            // Each thread owns the uids congruent to t mod kThreads.
            uint64_t uid = t + kThreads * (i % kUsersPerThread);
            VELOX_CHECK_OK(store
                               .ApplyObservation(uid, ObservedFeatures(options.dim, t, i),
                                                 1.0 + static_cast<double>(i % 5))
                               .status());
          }
        });
      }
      for (auto& observer : observers) observer.join();
      live = store.SerializeState();
    }
    journal->reset();  // flushes the kNone WAL
    ASSERT_EQ(GenesisReplay(jopts.wal_path, options), live) << "round " << round;
    std::remove(jopts.wal_path.c_str());
  }
}

// Two observers cross each cadence point together; only one of them
// may take the cut. The first snapshot falls on the first observe (the
// seeds already exceed the cadence), and every later one needs
// `snapshot_every` more records past the previous cut.
TEST(DurabilityConcurrencyTest, OneSnapshotPerCadenceCrossing) {
  constexpr uint64_t kUsers = 2000;
  constexpr uint64_t kObservesPerThread = 4096;
  constexpr uint64_t kEvery = 512;
  UserWeightStoreOptions options;
  options.dim = 10;
  options.num_stripes = 32;
  UserWeightJournalOptions jopts;
  jopts.wal_path = TempPath("dur_one_cut.wal");
  jopts.snapshot_path = TempPath("dur_one_cut.snap");
  jopts.wal.sync = WalSyncPolicy::kNone;
  jopts.snapshot_every = kEvery;
  auto journal = UserWeightJournal::Open(jopts);
  ASSERT_TRUE(journal.ok());
  Bootstrapper boot(options.dim);
  UserWeightStore store(options, &boot);
  store.AttachJournal(journal->get());
  for (uint64_t u = 0; u < kUsers; ++u) {
    store.SeedUser(u, ObservedFeatures(options.dim, 9, u), 1);
  }
  std::vector<std::thread> observers;
  for (uint64_t t = 0; t < 2; ++t) {
    observers.emplace_back([&store, &options, t] {
      for (uint64_t i = 0; i < kObservesPerThread; ++i) {
        uint64_t uid = (i * 7919 + t * 1000) % kUsers;
        VELOX_CHECK_OK(
            store.ApplyObservation(uid, ObservedFeatures(options.dim, t, i), 1.0)
                .status());
        VELOX_CHECK_OK(store.MaybeSnapshot());
      }
    });
  }
  for (auto& observer : observers) observer.join();

  const uint64_t records = (*journal)->records();
  ASSERT_EQ(records, kUsers + 2 * kObservesPerThread);
  const uint64_t crossings = 1 + (records - (kUsers + 1)) / kEvery;
  EXPECT_EQ(crossings, 16u);
  EXPECT_GE((*journal)->snapshots_written(), 1u);
  EXPECT_LE((*journal)->snapshots_written(), crossings);
  EXPECT_EQ((*journal)->snapshot_failures(), 0u);

  // Every cut was exact: the newest snapshot plus its suffix rebuilds
  // the live state bit for bit.
  std::vector<uint8_t> live = store.SerializeState();
  store.AttachJournal(nullptr);
  journal->reset();
  auto reopened = UserWeightJournal::Open(jopts);
  ASSERT_TRUE(reopened.ok());
  UserWeightRecovery recovery = (*reopened)->TakeRecovered();
  ASSERT_TRUE(recovery.snapshot_loaded);
  Bootstrapper boot2(options.dim);
  UserWeightStore restored(options, &boot2);
  ASSERT_TRUE(restored.RestoreState(recovery.snapshot_state).ok());
  for (const auto& record : recovery.suffix) {
    ASSERT_TRUE(restored.ApplyWalRecord(record).ok());
  }
  EXPECT_EQ(restored.SerializeState(), live);
  std::remove(jopts.wal_path.c_str());
  std::remove(jopts.snapshot_path.c_str());
}

// --- server kill-and-restart ---

VeloxServerConfig DurableConfig(int32_t nodes, const std::string& dir) {
  VeloxServerConfig config;
  config.num_nodes = nodes;
  config.dim = 4;
  config.bandit_policy = "";
  config.batch_workers = 2;
  config.evaluator.min_observations = 1000000;
  config.durability.dir = dir;
  return config;
}

std::unique_ptr<VeloxModel> SmallModel() {
  AlsConfig als;
  als.rank = 4;
  als.iterations = 4;
  return std::make_unique<MatrixFactorizationModel>("songs", als);
}

RetrainOutput SmallOutput() {
  auto table = std::make_shared<MaterializedFeatureFunction::FactorTable>();
  for (uint64_t i = 0; i < 20; ++i) {
    (*table)[i] = DenseVector{1.0, 0.1 * i, 0.05 * i, -0.2};
  }
  RetrainOutput output;
  output.features = std::make_shared<MaterializedFeatureFunction>(
      std::shared_ptr<const MaterializedFeatureFunction::FactorTable>(table), 4);
  for (uint64_t u = 0; u < 10; ++u) {
    output.user_weights[u] = DenseVector{0.5, 0.01 * u, -0.1, 0.3};
  }
  output.training_rmse = 0.4;
  return output;
}

Item MakeItem(uint64_t id) {
  Item item;
  item.id = id;
  return item;
}

TEST(ServerDurabilityTest, KillAndRestartBitIdenticalUnderFsync) {
  std::string dir = DurabilityDir("dur_fsync");
  auto config = DurableConfig(2, dir);
  config.durability.wal.sync = WalSyncPolicy::kFsync;
  config.durability.wal.fsync_every_n = 1;  // strict: every ack durable
  config.durability.snapshot_every = 8;
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<double> scores;
  {
    VeloxServer server(config, SmallModel());
    ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
    for (int i = 0; i < 100; ++i) {
      uint64_t uid = static_cast<uint64_t>(i) % 10;
      uint64_t item = static_cast<uint64_t>(i) % 20;
      ASSERT_TRUE(server.Observe(uid, MakeItem(item), 1.0 + 0.05 * i).ok());
    }
    for (int n = 0; n < 2; ++n) blobs.push_back(server.user_weights(n)->SerializeState());
    for (uint64_t u = 0; u < 10; ++u) {
      auto pred = server.Predict(u, MakeItem(u % 20));
      ASSERT_TRUE(pred.ok());
      scores.push_back(pred->score);
    }
  }  // "kill": the server (and every journal handle) is gone

  auto config2 = config;
  config2.durability.recover_on_start = false;
  VeloxServer server2(config2, SmallModel());
  // Install the same version first (unjournaled — the journal is not
  // attached yet), then let recovery overwrite with the logged truth.
  ASSERT_TRUE(server2.InstallVersion(SmallOutput()).ok());
  auto report = server2.RecoverDurability();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean);
  EXPECT_EQ(report->skipped_records, 0u);
  EXPECT_GT(report->replayed_records, 0u);
  EXPECT_GE(report->snapshot_restored_nodes, 1u);  // cadence 8 fired
  EXPECT_GT(report->snapshot_covered_records, 0u);

  // Bit-identical serving state: same table blobs, same predictions.
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(server2.user_weights(n)->SerializeState(), blobs[static_cast<size_t>(n)]);
  }
  for (uint64_t u = 0; u < 10; ++u) {
    auto pred = server2.Predict(u, MakeItem(u % 20));
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(pred->score, scores[u]) << "uid " << u;
  }

  // Observability: replay time landed in its stage, metrics exported.
  EXPECT_GT(server2.StageData(Stage::kRecoveryReplay).count(), 0u);
  EXPECT_NE(server2.StageReport().find("recovery_replay"), std::string::npos);
  std::string metrics = server2.MetricsReport();
  EXPECT_NE(metrics.find("recovery.replayed_records"), std::string::npos);
  EXPECT_NE(metrics.find("wal.appends"), std::string::npos);

  // Recovery is once-only; a second call is an error, not a wipe.
  EXPECT_TRUE(server2.RecoverDurability().status().IsFailedPrecondition());
}

TEST(ServerDurabilityTest, RestartedNodeKeepsJournalingNewMutations) {
  std::string dir = DurabilityDir("dur_rejournal");
  auto config = DurableConfig(1, dir);
  {
    VeloxServer server(config, SmallModel());
    ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
    ASSERT_TRUE(server.Observe(2, MakeItem(3), 4.0).ok());
  }
  int64_t observations = 0;
  {
    auto config2 = config;
    config2.durability.recover_on_start = false;
    VeloxServer server(config2, SmallModel());
    ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
    ASSERT_TRUE(server.RecoverDurability().ok());
    // Post-recovery mutations append to the same journal...
    ASSERT_TRUE(server.Observe(2, MakeItem(3), 4.5).ok());
    observations = server.user_weights(0)->NumObservations(2);
    EXPECT_EQ(observations, 2);
  }
  {
    // ...and a third incarnation recovers both generations of updates.
    auto config3 = config;
    config3.durability.recover_on_start = false;
    VeloxServer server(config3, SmallModel());
    ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
    ASSERT_TRUE(server.RecoverDurability().ok());
    EXPECT_EQ(server.user_weights(0)->NumObservations(2), observations);
  }
}

TEST(ServerDurabilityTest, TornTailLosesBoundedSuffixUnderFlush) {
  std::string dir = DurabilityDir("dur_flush");
  auto config = DurableConfig(1, dir);
  config.durability.snapshot_every = 0;  // genesis replay keeps the loss math exact
  {
    VeloxServer server(config, SmallModel());  // default policy: kFlush
    ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(server.Observe(3, MakeItem(5), 4.0).ok());
    }
    EXPECT_EQ(server.user_weights(0)->NumObservations(3), 20);
  }
  // A machine crash under kFlush can tear the OS-buffered tail: chop a
  // few bytes mid-record.
  std::string wal = dir + "/user_weights_node0.wal";
  std::vector<uint8_t> bytes = ReadFileBytes(wal);
  ASSERT_GT(bytes.size(), 7u);
  ASSERT_EQ(::truncate(wal.c_str(), static_cast<off_t>(bytes.size()) - 7), 0);

  auto config2 = config;
  config2.durability.recover_on_start = false;
  VeloxServer server2(config2, SmallModel());
  ASSERT_TRUE(server2.InstallVersion(SmallOutput()).ok());
  auto report = server2.RecoverDurability();
  ASSERT_TRUE(report.ok());
  // Documented bounded loss: exactly the torn final record is gone,
  // the recovery is flagged unclean, and serving continues.
  EXPECT_FALSE(report->clean);
  EXPECT_FALSE(server2.durability_recovery().clean);
  EXPECT_EQ(server2.user_weights(0)->NumObservations(3), 19);
  EXPECT_TRUE(server2.Predict(3, MakeItem(5)).ok());
  ASSERT_TRUE(server2.Observe(3, MakeItem(5), 4.0).ok());
  EXPECT_EQ(server2.user_weights(0)->NumObservations(3), 20);
}

// An unwritable snapshot path costs one failed attempt per cadence
// crossing, counted by the journal; observes stay OK and undegraded.
TEST(ServerDurabilityTest, FailedSnapshotIsCountedOncePerCrossingNotDegraded) {
  std::string dir = DurabilityDir("dur_snapfail");
  std::string tmp = dir + "/user_weights_node0.snap.tmp";
  ::rmdir(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);  // the snapshot cannot open its tmp file
  auto config = DurableConfig(1, dir);
  config.durability.snapshot_every = 16;
  {
    VeloxServer server(config, SmallModel());
    ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
    for (int i = 0; i < 64; ++i) {
      uint64_t uid = static_cast<uint64_t>(i) % 10;
      ASSERT_TRUE(server.Observe(uid, MakeItem(uid), 3.0).ok()) << "observe " << i;
    }
    const UserWeightJournal* journal = server.user_weight_journal(0);
    ASSERT_NE(journal, nullptr);
    // One record per mutation and no write succeeds, so the cut falls
    // on every multiple of the cadence.
    EXPECT_EQ(journal->snapshot_failures(), journal->records() / 16);
    EXPECT_GE(journal->snapshot_failures(), 4u);
    EXPECT_EQ(journal->snapshots_written(), 0u);
    EXPECT_EQ(server.DegradedCount(), 0u);
    std::string metrics = server.MetricsReport();
    EXPECT_NE(metrics.find("wal.snapshot_failures"), std::string::npos);
  }
  ::rmdir(tmp.c_str());
}

TEST(ServerDurabilityTest, RecoverWithoutDurabilityConfiguredFails) {
  VeloxServerConfig config = DurableConfig(1, "");
  VeloxServer server(config, SmallModel());
  EXPECT_TRUE(server.RecoverDurability().status().IsFailedPrecondition());
  EXPECT_EQ(server.user_weight_journal(0), nullptr);
}

TEST(ServerDurabilityTest, ShellReportShowsDurabilityLine) {
  std::string dir = DurabilityDir("dur_shell");
  auto config = DurableConfig(1, dir);
  VeloxServer server(config, SmallModel());
  ASSERT_TRUE(server.InstallVersion(SmallOutput()).ok());
  ASSERT_TRUE(server.Observe(1, MakeItem(1), 3.0).ok());
  VeloxShell shell(&server, {});
  auto report = shell.Execute("report");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("durability: policy=flush"), std::string::npos) << *report;
  EXPECT_NE(report->find("recovered("), std::string::npos) << *report;
}

}  // namespace
}  // namespace velox
