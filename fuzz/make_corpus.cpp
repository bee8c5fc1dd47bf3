// Seed-corpus generator for the fuzz harnesses.
//
//   praxi-make-corpus [output-root]         (default: fuzz/corpus)
//
// Writes a few golden snapshots per decoder family into
// <root>/<target>/seed-*.bin. Seeds are built from tiny fixed fixtures so
// regeneration is deterministic; they are checked into the repo (generated
// fuzzer corpora are not — see .gitignore). Each target's smoke test replays
// these and mutates from them, so every header field and section of each
// format starts covered.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "columbus/tagset.hpp"
#include "common/serialize.hpp"
#include "core/praxi.hpp"
#include "core/tagset_store.hpp"
#include "fs/changeset.hpp"
#include "ml/kernel_svm.hpp"
#include "ml/online_learner.hpp"
#include "ml/word2vec.hpp"
#include "net/frame.hpp"
#include "pkg/dataset.hpp"
#include "service/transport.hpp"
#include "service/wal.hpp"

namespace {

using namespace praxi;

fs::Changeset make_changeset(const std::string& label,
                             const std::vector<std::string>& paths) {
  fs::Changeset cs;
  cs.set_open_time(1000);
  std::int64_t t = 1001;
  for (const auto& path : paths) {
    cs.add({path, 0644, fs::ChangeKind::kCreate, t++});
  }
  cs.close(t);
  cs.add_label(label);
  return cs;
}

std::vector<fs::Changeset> training_corpus() {
  return {
      make_changeset("nginx", {"/usr/sbin/nginx", "/etc/nginx/nginx.conf",
                               "/usr/lib/nginx/modules/mod_http.so"}),
      make_changeset("redis", {"/usr/bin/redis-server", "/etc/redis/redis.conf",
                               "/usr/lib/redis/modules/bloom.so"}),
      make_changeset("mysql", {"/usr/sbin/mysqld", "/etc/mysql/my.cnf",
                               "/var/lib/mysql/ibdata1"}),
  };
}

core::Praxi tiny_trained_praxi(core::LabelMode mode) {
  core::PraxiConfig config;
  config.mode = mode;
  config.learner.bits = 8;
  core::Praxi model(config);
  const auto corpus = training_corpus();
  std::vector<const fs::Changeset*> pointers;
  pointers.reserve(corpus.size());
  for (const auto& cs : corpus) pointers.push_back(&cs);
  model.train_changesets(pointers);
  return model;
}

columbus::TagSet tiny_tagset() {
  columbus::TagSet ts;
  ts.tags = {{"nginx", 5}, {"nginx.conf", 2}, {"modules", 1}};
  ts.labels = {"nginx"};
  return ts;
}

std::filesystem::path g_root;

void emit(const std::string& target, const std::string& name,
          std::string_view bytes) {
  const auto dir = g_root / target;
  std::filesystem::create_directories(dir);
  write_file((dir / ("seed-" + name + ".bin")).string(), bytes);
  std::cout << target << "/seed-" << name << ".bin: " << bytes.size()
            << " bytes\n";
}

}  // namespace

int main(int argc, char** argv) {
  g_root = argc > 1 ? argv[1] : "fuzz/corpus";

  const auto corpus = training_corpus();

  emit("prx1", "single",
       tiny_trained_praxi(core::LabelMode::kSingleLabel).to_binary());
  emit("prx1", "multi",
       tiny_trained_praxi(core::LabelMode::kMultiLabel).to_binary());

  ml::OnlineLearnerConfig learner_config;
  learner_config.bits = 8;
  ml::OaaClassifier oaa(learner_config);
  oaa.learn_one({{1, 1.0f}, {7, 0.5f}}, "nginx");
  oaa.learn_one({{2, 1.0f}, {9, 0.5f}}, "redis");
  emit("poa1", "trained", oaa.to_binary());
  emit("poa1", "empty", ml::OaaClassifier(learner_config).to_binary());

  ml::CsoaaClassifier csoaa(learner_config);
  csoaa.learn_one({{1, 1.0f}, {7, 0.5f}}, {"nginx", "redis"});
  emit("pcs2", "trained", csoaa.to_binary());

  emit("pcs1", "nginx", corpus[0].to_binary());
  emit("pcs1", "empty", fs::Changeset().to_binary());

  emit("ptg1", "nginx", tiny_tagset().to_binary());
  emit("ptg1", "empty", columbus::TagSet().to_binary());

  core::TagsetStore store;
  store.add(tiny_tagset());
  emit("pts1", "one", store.to_binary());
  emit("pts1", "empty", core::TagsetStore().to_binary());

  pkg::Dataset dataset;
  dataset.changesets = corpus;
  dataset.refresh_labels();
  emit("pds1", "three", dataset.to_binary());

  ml::Word2VecConfig w2v_config;
  w2v_config.dim = 8;
  w2v_config.min_count = 1;
  w2v_config.epochs = 1;
  ml::Word2Vec w2v(w2v_config);
  w2v.train({{"usr", "sbin", "nginx"},
             {"etc", "nginx", "conf"},
             {"usr", "bin", "redis"}});
  emit("pw2v", "tiny", w2v.to_binary());
  emit("pw2v", "untrained", ml::Word2Vec(w2v_config).to_binary());

  ml::RbfSvmConfig svm_config;
  svm_config.epochs = 2;
  ml::RbfSvmOva svm(svm_config);
  svm.train({{1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 1.0f}},
            {{0u}, {1u}, {0u, 1u}}, 2);
  emit("psv1", "tiny", svm.to_binary());

  service::ChangesetReport report;
  report.agent_id = "vm-042";
  report.sequence = 7;
  report.changeset = corpus[1];
  // The v1 frame older agents send (nested "PCS1" envelope) and the v2
  // frame this build writes, so the harness covers both decode paths.
  emit("prpt", "vm042", report.to_wire_v1());
  emit("prpt", "vm042-v2", report.to_wire());

  // WAL segment seeds (fuzz_wal.cpp): first byte = mode flags (bit0 =
  // last-segment), then a record stream. One settle run, one snapshot that
  // replaces it, and one last-segment stream with a torn tail.
  {
    std::string settled;
    settled.push_back('\x01');  // last segment
    settled += service::encode_wal_settle("vm-042", 0,
                                          service::SettleOutcome::kProcessed);
    settled += service::encode_wal_settle("vm-042", 2,
                                          service::SettleOutcome::kProcessed);
    settled += service::encode_wal_settle("vm-042", 1,
                                          service::SettleOutcome::kProcessed);
    emit("wal", "settles", settled);

    service::WalState state;
    state["vm-042"].floor = 3;
    state["vm-7"].floor = 0;
    state["vm-7"].held = {2, 5};
    std::string compacted;
    compacted.push_back('\x00');  // mid-log segment
    compacted += service::encode_wal_snapshot(state);
    compacted += service::encode_wal_settle(
        "vm-7", 0, service::SettleOutcome::kProcessed);
    emit("wal", "snapshot", compacted);

    std::string torn = settled;
    torn.resize(torn.size() - 7);  // tear the final record mid-payload
    emit("wal", "torn_tail", torn);
  }

  // Frame seeds: first byte = chunk size selector (fuzz_frame.cpp), then a
  // frame stream. One realistic session (hello, data, ack) and one lone ack.
  {
    std::string session;
    session.push_back('\x03');  // feed in 4-byte chunks
    session += net::encode_frame(net::FrameType::kHello, 0, "vm-042");
    session += net::encode_frame(net::FrameType::kData, 7, report.to_wire());
    session += net::encode_frame(net::FrameType::kAck, 7, "");
    emit("frame", "session", session);

    std::string ack;
    ack.push_back('\x10');  // whole-buffer feed
    ack += net::encode_frame(net::FrameType::kAck, 42, "");
    emit("frame", "ack", ack);
  }

  emit("tokenizer", "paths",
       "/usr/sbin/nginx\n/etc/mysql/conf.d/my.cnf\n"
       "/var/lib/dpkg/info/libssl3:amd64.list\n"
       "relative/path with spaces/x.so.1.2.3\n//../..//.hidden\n");

  // Differential arena-vs-reference pipeline harness: path lists heavy on
  // the shapes that stress tokenize_views/intern/arena-trie (case folds,
  // shared-prefix floods, 1-char segments, duplicates, empties).
  emit("columbus_arena", "paths",
       "/usr/sbin/nginx\n/usr/sbin/nginx\n/ETC/MySQL/Conf.d/MySQLd.cnf\n"
       "/a/b/c\n////\n\n/opt/tool-1/leaf\n/opt/tool-2/leaf\n"
       "/opt/tool-3/leaf\nrelative/no-slash\n");
  emit("columbus_arena", "flood", [] {
    std::string lines;
    for (int i = 0; i < 24; ++i) {
      lines += "/srv/shared-prefix/depth-" + std::to_string(i % 5) +
               "/leaf-" + std::to_string(i) + "\n";
    }
    return lines;
  }());

  std::cout << "seed corpora written under " << g_root.string() << "\n";
  return 0;
}
