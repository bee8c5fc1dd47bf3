// Tests for the praxi-cli command layer (cli/cli.hpp), driven in-process.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

namespace praxi::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  CliTest() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("praxi_cli_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }

  ~CliTest() override { std::filesystem::remove_all(dir_); }

  int run_cli(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run(args, out_, err_);
  }

  /// Collects the generated changeset files.
  std::vector<std::string> corpus_files() const {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".changeset") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  std::string dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_NE(out_.str().find("commands:"), std::string::npos);
  EXPECT_EQ(run_cli({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
  EXPECT_EQ(run_cli({}), 2);
}

TEST_F(CliTest, DemoCorpusWritesChangesets) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const auto files = corpus_files();
  EXPECT_EQ(files.size(), 4u * 2u + 2u /* one manual app x2 */);
  EXPECT_NE(out_.str().find("wrote"), std::string::npos);
}

TEST_F(CliTest, DemoCorpusRequiresOut) {
  EXPECT_EQ(run_cli({"demo-corpus"}), 2);
}

TEST_F(CliTest, TagsPrintsTagsets) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty());
  ASSERT_EQ(run_cli({"tags", files[0]}), 0);
  EXPECT_NE(out_.str().find("labels="), std::string::npos);
  EXPECT_NE(out_.str().find(':'), std::string::npos);
}

TEST_F(CliTest, TagsRejectsMissingFile) {
  EXPECT_EQ(run_cli({"tags", dir_ + "/does-not-exist.changeset"}), 1);
  EXPECT_FALSE(err_.str().empty());
}

TEST_F(CliTest, FullTrainPredictInspectWorkflow) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "5",
                     "--samples", "3"}),
            0);
  auto files = corpus_files();
  ASSERT_GE(files.size(), 10u);

  const std::string model = dir_ + "/model.praxi";
  std::vector<std::string> train_args{"train", "--model", model};
  train_args.insert(train_args.end(), files.begin(), files.end());
  ASSERT_EQ(run_cli(train_args), 0) << err_.str();
  EXPECT_TRUE(std::filesystem::exists(model));

  // Predict on a training file: the label is encoded in the filename.
  ASSERT_EQ(run_cli({"predict", "--model", model, files[0]}), 0);
  const std::string expected_label =
      std::filesystem::path(files[0]).filename().string().substr(
          0, std::filesystem::path(files[0]).filename().string().rfind('-'));
  EXPECT_NE(out_.str().find(expected_label), std::string::npos)
      << "prediction output: " << out_.str();

  ASSERT_EQ(run_cli({"inspect", "--model", model}), 0);
  EXPECT_NE(out_.str().find("single-label"), std::string::npos);
  EXPECT_NE(out_.str().find("labels"), std::string::npos);
}

TEST_F(CliTest, AppendContinuesTraining) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const auto files = corpus_files();
  const std::string model = dir_ + "/model.praxi";

  // Train on the first half, append the second half.
  const auto half = static_cast<std::ptrdiff_t>(files.size() / 2);
  std::vector<std::string> first{"train", "--model", model};
  first.insert(first.end(), files.begin(), files.begin() + half);
  ASSERT_EQ(run_cli(first), 0) << err_.str();

  std::vector<std::string> second{"train", "--model", model, "--append"};
  second.insert(second.end(), files.begin() + half, files.end());
  ASSERT_EQ(run_cli(second), 0) << err_.str();
  EXPECT_NE(out_.str().find("updated"), std::string::npos);
  // --append is a switch: the file after it is trained on, not its value.
  EXPECT_NE(out_.str().find("on " + std::to_string(second.size() - 4) +
                            " changesets"),
            std::string::npos)
      << out_.str();
}

TEST_F(CliTest, TrainRejectsMissingModelArgument) {
  EXPECT_EQ(run_cli({"train", "some-file"}), 2);
  EXPECT_EQ(run_cli({"predict", "some-file"}), 2);
  EXPECT_EQ(run_cli({"inspect"}), 2);
}

TEST_F(CliTest, ServeAndReportRoundTripOverLoopback) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 4u);
  const std::string model = dir_ + "/model.praxi";
  std::vector<std::string> train_args{"train", "--model", model};
  train_args.insert(train_args.end(), files.begin(), files.end());
  ASSERT_EQ(run_cli(train_args), 0) << err_.str();

  // The server runs on its own thread with its own streams (run() is a
  // pure function over argv and streams, so two invocations can overlap).
  const std::string port_file = dir_ + "/serve.port";
  std::ostringstream serve_out;
  std::ostringstream serve_err;
  int serve_rc = -1;
  std::thread server([&] {
    serve_rc = run({"serve", "--model", model, "--max-reports", "3",
                    "--port-file", port_file, "--duration-s", "30"},
                   serve_out, serve_err);
  });

  std::string port;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream f(port_file);
    if (f >> port && !port.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(port.empty()) << "serve never wrote its port file";

  const int report_rc =
      run_cli({"report", "--connect", "127.0.0.1:" + port, files[0],
               files[1], files[2]});
  server.join();

  EXPECT_EQ(report_rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("acknowledged 3 reports"), std::string::npos)
      << out_.str();
  EXPECT_EQ(serve_rc, 0) << serve_err.str();
  EXPECT_EQ(serve_out.str().rfind("listening on 127.0.0.1:" + port + "\n", 0),
            0u)
      << serve_out.str();
  EXPECT_NE(serve_out.str().find("processed 3 reports"), std::string::npos)
      << serve_out.str();
  EXPECT_NE(serve_out.str().find("discover"), std::string::npos)
      << serve_out.str();
}

TEST_F(CliTest, ServeRejectsMissingBound) {
  EXPECT_EQ(run_cli({"serve", "--model", dir_ + "/m.praxi"}), 2);
  EXPECT_EQ(run_cli({"report", "some-file"}), 2);  // missing --connect
}

TEST_F(CliTest, ClusterAndReportRoundTripOverLoopback) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 4u);
  const std::string model = dir_ + "/model.praxi";
  std::vector<std::string> train_args{"train", "--model", model};
  train_args.insert(train_args.end(), files.begin(), files.end());
  ASSERT_EQ(run_cli(train_args), 0) << err_.str();

  // Agents reach a cluster's frontend exactly as they reach `serve`.
  const std::string port_file = dir_ + "/cluster.port";
  std::ostringstream cluster_out;
  std::ostringstream cluster_err;
  int cluster_rc = -1;
  std::thread cluster([&] {
    cluster_rc = run({"cluster", "--model", model, "--shards", "2",
                      "--max-reports", "3", "--port-file", port_file,
                      "--duration-s", "30"},
                     cluster_out, cluster_err);
  });

  std::string port;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream f(port_file);
    if (f >> port && !port.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(port.empty()) << "cluster never wrote its port file";

  const int report_rc =
      run_cli({"report", "--connect", "127.0.0.1:" + port, files[0],
               files[1], files[2]});
  cluster.join();

  EXPECT_EQ(report_rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("acknowledged 3 reports"), std::string::npos)
      << out_.str();
  EXPECT_EQ(cluster_rc, 0) << cluster_err.str();
  const std::string printed = cluster_out.str();
  EXPECT_NE(printed.find("2-shard cluster listening on 127.0.0.1:" + port),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("processed 3 reports across 2 shards"),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("discover"), std::string::npos) << printed;
  EXPECT_NE(printed.find("[shard "), std::string::npos) << printed;
}

TEST_F(CliTest, ClusterRejectsMissingBoundAndZeroShards) {
  const std::string model = dir_ + "/m.praxi";
  EXPECT_EQ(run_cli({"cluster", "--model", model}), 2);
  EXPECT_NE(err_.str().find("cluster: a stop bound is required"),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(run_cli({"cluster", "--model", model, "--max-reports", "1",
                     "--shards", "0"}),
            2);
  EXPECT_NE(err_.str().find("--shards must be >= 1"), std::string::npos)
      << err_.str();
  EXPECT_EQ(run_cli({"cluster", "--max-reports", "1"}), 2);  // no --model
}

TEST_F(CliTest, NumericFlagsRefuseWrapNegativeAndTrailingJunk) {
  // Each refusal exits 2 naming the flag, before the (absent) model is
  // loaded, so no listener, router or thread pool is ever built.
  const std::string model = dir_ + "/absent.praxi";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"serve", "--model", model, "--max-reports", "1", "--port",
            "70000"},
           "serve: --port must be an integer in [0, 65535], got '70000'"},
          {{"cluster", "--model", model, "--max-reports", "1", "--port",
            "70000"},
           "cluster: --port must be an integer in [0, 65535]"},
          {{"report", "--connect", "127.0.0.1:70000", dir_ + "/absent"},
           "report: --connect port must be an integer in [0, 65535], got "
           "'70000'"},
          {{"cluster", "--model", model, "--max-reports", "1", "--shards",
            "-1"},
           "cluster: --shards must be an integer in [0, "},
          {{"serve", "--model", model, "--max-reports", "1", "--threads",
            "-1"},
           "serve: --threads must be an integer in [0, "},
          {{"predict", "--model", model, "--threads", "-1", dir_ + "/absent"},
           "predict: --threads must be an integer"},
          {{"cluster", "--model", model, "--max-reports", "1", "--shards",
            "2x"},
           "cluster: --shards must be an integer in [0, "},
          {{"serve", "--model", model, "--duration-s", "-3"},
           "serve: --duration-s must be a non-negative number, got '-3'"},
      };
  for (const auto& [args, message] : cases) {
    EXPECT_EQ(run_cli(args), 2) << args[0] << ": " << err_.str();
    EXPECT_NE(err_.str().find(message), std::string::npos) << err_.str();
    EXPECT_TRUE(out_.str().empty()) << out_.str();
  }
}

TEST_F(CliTest, UnknownFlagFailsWithUsage) {
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const std::string model = dir_ + "/model.praxi";
  std::vector<std::string> train_args{"train", "--model", model};
  for (const auto& file : corpus_files()) train_args.push_back(file);
  ASSERT_EQ(run_cli(train_args), 0) << err_.str();

  EXPECT_EQ(run_cli({"inspect", "--model", model, "--merge-every", "3"}), 2);
  EXPECT_NE(err_.str().find("inspect: unknown option --merge-every"),
            std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("usage: praxi-cli"), std::string::npos);
  EXPECT_TRUE(out_.str().empty()) << "the command must not run";

  EXPECT_EQ(run_cli({"cluster", "--model", model, "--shards", "2",
                     "--max-reports", "1", "--merge-every", "2"}),
            2);
  EXPECT_NE(err_.str().find("cluster: unknown option --merge-every"),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(run_cli({"inspect", "--model", model, "-n", "2"}), 2);
  EXPECT_NE(err_.str().find("inspect: unknown option -n"), std::string::npos);
}

TEST_F(CliTest, EveryFlagInUsageIsAcceptedByItsCommand) {
  // Each command's lines of the usage text name its flags; --metrics-out
  // applies to every command. Run each flag alone: the command may refuse
  // for a missing argument, never for an unknown option.
  ASSERT_EQ(run_cli({"help"}), 0);
  std::istringstream usage_text(out_.str());
  std::map<std::string, std::set<std::string>> flags;
  std::string line, command;
  while (std::getline(usage_text, line)) {
    if (line.size() > 2 && line.rfind("  ", 0) == 0 &&
        std::islower(static_cast<unsigned char>(line[2]))) {
      command = line.substr(2, line.find(' ', 2) - 2);  // "  train --model"
    } else if (line.rfind("        ", 0) != 0) {
      command.clear();  // a note, not a command's flag list
    }
    if (command.empty()) continue;
    std::istringstream words(line);
    std::string word;
    while (words >> word) {
      const auto start = word.find('-');
      if (start == std::string::npos) continue;
      const auto end = word.find_first_not_of("-abcdefghijklmnopqrstuvwxyz",
                                              start);
      const std::string name = word.substr(start, end - start);
      if (name == "-n" || name.rfind("--", 0) == 0) flags[command].insert(name);
    }
    flags[command].insert("--metrics-out");
  }
  ASSERT_EQ(flags.size(), 9u);
  EXPECT_TRUE(flags["cluster"].count("--wal-root"));
  EXPECT_TRUE(flags["predict"].count("-n"));
  const std::string missing = dir_ + "/absent";
  for (const auto& [name, names] : flags) {
    for (const auto& option : names) {
      const std::string value = option == "--out"           ? missing
                                : option == "--metrics-out" ? missing + ".prom"
                                : option == "--format"      ? "prom"
                                                            : "1";
      run_cli({name, option, value});
      EXPECT_EQ(err_.str().find("unknown option"), std::string::npos)
          << name << " " << option << ": " << err_.str();
    }
  }
}

TEST_F(CliTest, PredictRejectsCorruptModel) {
  const std::string bogus = dir_ + "/bogus.praxi";
  {
    std::ofstream f(bogus);
    f << "not a model";
  }
  ASSERT_EQ(run_cli({"demo-corpus", "--out", dir_, "--apps", "4",
                     "--samples", "2"}),
            0);
  const auto files = corpus_files();
  EXPECT_EQ(run_cli({"predict", "--model", bogus, files[0]}), 1);
  EXPECT_FALSE(err_.str().empty());
}

}  // namespace
}  // namespace praxi::cli
