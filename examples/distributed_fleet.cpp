// Distributed discovery: the client/server deployment of paper §II-C.
//
// A fleet of simulated instances each runs a tiny CollectionAgent that ships
// observation windows over the message bus; the central DiscoveryServer
// classifies them, maintains a live fleet inventory, and — when an unknown
// package appears — learns it ONLINE from operator-confirmed feedback, so
// the very next sighting anywhere in the fleet is identified. No retraining,
// no dictionary regeneration: the §V-D incremental loop in deployment form.
//
// Run:  ./distributed_fleet [instances] [hours]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "common/strings.hpp"
#include "eval/harness.hpp"
#include "pkg/dataset.hpp"
#include "pkg/installer.hpp"
#include "pkg/noise.hpp"
#include "service/agent.hpp"
#include "service/server.hpp"

int main(int argc, char** argv) {
  using namespace praxi;

  const int fleet_size = argc > 1 ? std::atoi(argv[1]) : 6;
  const double hours = argc > 2 ? std::strtod(argv[2], nullptr) : 1.0;

  // The server's model knows 16 packages; one more exists in the wild.
  const auto known = pkg::Catalog::subset(42, 16, 2);
  const auto world = pkg::Catalog::subset(42, 17, 2);
  const std::string newcomer = world.repository_names()[16];

  pkg::DatasetBuilder builder(known, 7);
  pkg::CollectOptions options;
  options.samples_per_app = 6;
  const pkg::Dataset corpus = builder.collect_dirty(options);
  core::Praxi model;
  model.train_changesets(eval::pointers(corpus));

  service::MessageBus bus;
  service::DiscoveryServer server(std::move(model), {});
  std::cout << "server online: " << server.model().labels().size()
            << " known applications (\"" << newcomer
            << "\" is not one of them)\n\n";

  // ---- Fleet -----------------------------------------------------------------
  struct Instance {
    fs::SimClockPtr clock;
    std::unique_ptr<fs::InMemoryFilesystem> filesystem;
    std::unique_ptr<pkg::Installer> installer;
    std::unique_ptr<pkg::NoiseMix> noise;
    std::unique_ptr<service::CollectionAgent> agent;
    std::vector<std::string> installed;
  };
  std::vector<Instance> fleet;
  Rng rng(7777);
  for (int v = 0; v < fleet_size; ++v) {
    Instance instance;
    instance.clock = fs::make_clock();
    instance.filesystem =
        std::make_unique<fs::InMemoryFilesystem>(instance.clock);
    pkg::provision_base_image(*instance.filesystem);
    instance.installer = std::make_unique<pkg::Installer>(
        *instance.filesystem, world, Rng(rng.next()));
    instance.noise =
        std::make_unique<pkg::NoiseMix>(pkg::NoiseMix::baseline(Rng(rng.next())));
    instance.agent = std::make_unique<service::CollectionAgent>(
        "vm-" + std::to_string(v), *instance.filesystem, bus);
    fleet.push_back(std::move(instance));
  }

  const auto apps = world.application_names();
  const double total_s = hours * 3600.0;
  for (double t = 0.0; t < total_s; t += 1.0) {
    for (auto& instance : fleet) {
      instance.clock->advance_s(1.0);
      instance.noise->tick(*instance.filesystem, 1.0);
      if (rng.chance(0.0006) &&
          instance.installed.size() + 1 < apps.size()) {
        std::string app;
        do {
          app = rng.chance(0.25) ? newcomer : apps[rng.below(apps.size())];
        } while (std::find(instance.installed.begin(),
                           instance.installed.end(),
                           app) != instance.installed.end());
        instance.installer->install(app);
        instance.installed.push_back(app);
      }
      instance.agent->poll();
    }

    for (const auto& discovery : server.process(bus)) {
      std::cout << "[t+" << int(t) << "s] " << discovery.agent_id << ": "
                << discovery.record_count << " changes -> "
                << join(discovery.applications, " ") << "\n";
    }
  }

  // The operator notices the unknown package and teaches the server online.
  std::cout << "\noperator feedback: teaching \"" << newcomer
            << "\" from 6 confirmed changesets (online, no retrain)\n";
  for (std::uint64_t s = 0; s < 6; ++s) {
    auto clock = fs::make_clock();
    fs::InMemoryFilesystem sandbox(clock);
    pkg::provision_base_image(sandbox);
    pkg::Installer installer(sandbox, world, Rng(s));
    fs::ChangesetRecorder recorder(sandbox);
    installer.install(newcomer);
    fs::Changeset cs = recorder.eject({newcomer});
    server.learn_feedback(cs);
  }
  std::cout << "server now knows " << server.model().labels().size()
            << " applications\n";

  // Next sighting anywhere in the fleet is identified.
  auto clock = fs::make_clock();
  fs::InMemoryFilesystem instance(clock);
  pkg::provision_base_image(instance);
  pkg::Installer installer(instance, world, Rng(31337));
  service::CollectionAgent agent("vm-new", instance, bus);
  installer.install(newcomer);
  clock->advance_s(400.0);
  agent.poll();
  for (const auto& discovery : server.process(bus)) {
    std::cout << "post-feedback sighting on " << discovery.agent_id << " -> "
              << join(discovery.applications, " ") << "  (truth: " << newcomer
              << ")\n";
  }

  // ---- Inventory --------------------------------------------------------------
  std::cout << "\nfleet inventory (" << server.processed()
            << " windows processed, "
            << format_bytes(bus.stats().sent_bytes) << " shipped, "
            << server.store().size() << " labeled tagsets in "
            << format_bytes(server.store().total_bytes()) << "):\n";
  for (const auto& [agent_id, discovered] : server.inventory()) {
    std::cout << "  " << agent_id << ":";
    for (const auto& app : discovered) std::cout << " " << app;
    std::cout << "\n";
  }
  return 0;
}
