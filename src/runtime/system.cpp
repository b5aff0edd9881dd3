#include "runtime/system.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"

namespace frame::runtime {

EdgeSystem::EdgeSystem(SystemOptions options, std::vector<ProxyGroup> proxies)
    : options_(options) {
  if (options_.transport == Transport::kInproc) {
    auto inproc = std::make_unique<InprocBus>();
    inproc_ = inproc.get();
    bus_ = std::move(inproc);
  } else {
    auto tcp = std::make_unique<TcpBus>();
    tcp->set_connect_timeout(options_.connect_timeout);
    bus_ = std::move(tcp);
  }
  if (options_.fault_plan.has_value()) {
    // The decorator owns the real transport; inproc_ stays valid for the
    // latency wiring below because FaultyBus never destroys its inner bus
    // before its own shutdown.
    auto faulty =
        std::make_unique<FaultyBus>(std::move(bus_), *options_.fault_plan);
    faulty_ = faulty.get();
    bus_ = std::move(faulty);
  }
  // Collect the dense topic table.
  for (const auto& proxy : proxies) {
    for (const auto& spec : proxy.topics) topics_.push_back(spec);
  }
  std::sort(topics_.begin(), topics_.end(),
            [](const TopicSpec& a, const TopicSpec& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < topics_.size(); ++i) {
    assert(topics_[i].id == static_cast<TopicId>(i) &&
           "topic ids must be dense 0..n-1");
  }

  // Link latencies (Fig. 6: LAN switch + cloud uplink).  Only the
  // in-process transport shapes latency; TCP runs at loopback speed.
  const auto wire = [&](NodeId a, NodeId b, Duration latency) {
    if (inproc_ == nullptr) return;
    inproc_->set_link_latency(a, b, latency);
    inproc_->set_link_latency(b, a, latency);
  };
  if (inproc_ != nullptr) {
    inproc_->set_default_latency(options_.edge_latency);
  }
  wire(nodes_.primary, nodes_.backup, options_.backup_latency);
  wire(nodes_.primary, nodes_.cloud_subscriber, options_.cloud_latency);
  wire(nodes_.backup, nodes_.cloud_subscriber, options_.cloud_latency);

  // Brokers.
  const BrokerConfig broker_cfg = broker_config(options_.config);
  RuntimeBroker::Options primary_opts;
  primary_opts.node = nodes_.primary;
  primary_opts.peer = nodes_.backup;
  primary_opts.start_as_primary = true;
  primary_opts.broker = broker_cfg;
  primary_opts.poll_period = options_.detector_poll;
  primary_opts.poll_miss_threshold = options_.detector_misses;
  // Both brokers get the same shard count: the Backup's shards sit empty
  // until a promotion turns it into the serving Primary.
  primary_opts.shards = resolve_shard_count(options_.shards);
  primary_ = std::make_unique<RuntimeBroker>(*bus_, clock_, primary_opts,
                                             topics_, options_.timing);

  RuntimeBroker::Options backup_opts = primary_opts;
  backup_opts.node = nodes_.backup;
  backup_opts.peer = nodes_.primary;
  backup_opts.start_as_primary = false;
  backup_ = std::make_unique<RuntimeBroker>(*bus_, clock_, backup_opts,
                                            topics_, options_.timing);

  // Subscribers (ES1, ES2, CS1) and subscriptions on both brokers.
  const NodeId sub_nodes[3] = {nodes_.edge_subscriber_1,
                               nodes_.edge_subscriber_2,
                               nodes_.cloud_subscriber};
  for (const NodeId node : sub_nodes) {
    subscribers_.push_back(
        std::make_unique<RuntimeSubscriber>(*bus_, clock_, node));
  }
  for (const auto& spec : topics_) {
    const int index = subscriber_index_of(spec.id);
    subscribers_[index]->add_topic(spec);
    primary_->subscribe(spec.id, sub_nodes[index]);
    backup_->subscribe(spec.id, sub_nodes[index]);
  }

  // Publisher proxies; each proxy publishes to the Primary until failover.
  NodeId pub_node = nodes_.first_publisher;
  for (const auto& proxy : proxies) {
    wire(pub_node, nodes_.primary, options_.publisher_latency);
    wire(pub_node, nodes_.backup, options_.publisher_latency);
    RuntimePublisher::Options pub_opts;
    pub_opts.node = pub_node;
    pub_opts.primary = nodes_.primary;
    pub_opts.backup = nodes_.backup;
    pub_opts.poll_period = options_.detector_poll;
    pub_opts.poll_miss_threshold = options_.detector_misses;
    publishers_.push_back(std::make_unique<RuntimePublisher>(
        *bus_, clock_, pub_opts, proxy.topics, proxy.period));
    std::vector<TopicId> ids;
    for (const auto& spec : proxy.topics) ids.push_back(spec.id);
    publisher_topics_.push_back(std::move(ids));
    ++pub_node;
  }

  // Arm the flight recorder (no-op unless FRAME_POSTMORTEM_DIR is set) and
  // give it this system's wall anchor so a bundle's trace.dump stitches
  // onto the same wall axis as live /trace scrapes.
  obs::flight_recorder().configure_from_env();
  obs::flight_recorder().set_wall_anchor(wall_now_ns() - clock_.now());
  obs::flight_recorder().install_fatal_handlers();

  if (options_.telemetry_port.has_value()) {
    obs::HttpExporter::Options http;
    http.port = *options_.telemetry_port;
    http.healthz = [this](int& status) { return healthz_json(&status); };
    http.trace_dump = [this] { return obs::serialize_dump(trace_dump()); };
    auto endpoint = obs::HttpExporter::create(std::move(http));
    if (endpoint.is_ok()) {
      telemetry_ = endpoint.take();
    } else {
      FRAME_LOG_WARN("telemetry endpoint disabled: %s",
                     endpoint.status().message().c_str());
    }
  }
}

EdgeSystem::~EdgeSystem() { stop(); }

std::string EdgeSystem::healthz_json(int* status_out) const {
  const bool primary_serving = primary_->is_primary();
  const bool backup_serving = backup_->is_primary();
  const bool degraded = primary_serving && !primary_->has_live_peer();
  // Whoever is serving without a live peer has replication suspended: the
  // original degraded mode on the Primary, or a promoted Backup that has
  // no Backup of its own.  Either way fault tolerance is gone and the
  // endpoint must fail readiness probes.
  const bool serving_unprotected =
      degraded || (backup_serving && !backup_->has_live_peer());
  bool critical = false;
  if (obs::enabled()) {
    obs::slo().evaluate(obs::slo().latest_now());
    critical = obs::slo().critical_firing();
  }
  const char* reason = serving_unprotected ? "serving without live peer"
                       : critical          ? "critical alert firing"
                                           : "";
  if (status_out != nullptr) {
    *status_out = serving_unprotected || critical ? 503 : 200;
  }
  std::size_t failed_over = 0;
  for (const auto& pub : publishers_) {
    if (pub->failed_over()) ++failed_over;
  }
  std::string out = "{\"status\":\"";
  out += backup_serving ? "failed-over" : (degraded ? "degraded" : "ok");
  if (reason[0] != '\0') {
    out += "\",\"reason\":\"";
    out += reason;
  }
  out += "\",\"critical_alert\":";
  out += critical ? "true" : "false";
  out += ",\"role\":\"";
  out += backup_serving ? "backup-promoted" : "primary";
  out += "\",\"primary_serving\":";
  out += primary_serving ? "true" : "false";
  out += ",\"backup_serving\":";
  out += backup_serving ? "true" : "false";
  out += ",\"primary_sees_live_peer\":";
  out += primary_->has_live_peer() ? "true" : "false";
  out += ",\"degraded\":";
  out += degraded ? "true" : "false";
  out += ",\"publishers_failed_over\":" + std::to_string(failed_over);
  out += ",\"publishers\":" + std::to_string(publishers_.size());
  out += "}\n";
  return out;
}

int EdgeSystem::subscriber_index_of(TopicId topic) const {
  if (topics_[topic].destination == Destination::kCloud) return 2;
  return static_cast<int>(topic % 2);
}

void EdgeSystem::start() {
  primary_->start();
  backup_->start();
  for (auto& pub : publishers_) pub->start();
}

void EdgeSystem::stop() {
  for (auto& pub : publishers_) pub->stop();
  if (primary_) primary_->stop();
  if (backup_) backup_->stop();
  bus_->shutdown();
}

void EdgeSystem::crash_primary() {
  obs::hooks::crash_injected(nodes_.primary, clock_.now());
  primary_->crash();
}

void EdgeSystem::crash_backup() {
  obs::hooks::crash_injected(nodes_.backup, clock_.now());
  backup_->crash();
}

void EdgeSystem::rejoin_crashed_primary() {
  primary_->restart_as_backup(nodes_.backup);
}

void EdgeSystem::rejoin_crashed_backup() {
  backup_->restart_as_backup(nodes_.primary);
}

bool EdgeSystem::wait_for_degraded(Duration timeout) {
  const TimePoint deadline = clock_.now() + timeout;
  while (clock_.now() < deadline) {
    if (primary_->is_primary() && !primary_->has_live_peer()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool EdgeSystem::wait_for_replication_restored(Duration timeout) {
  const TimePoint deadline = clock_.now() + timeout;
  while (clock_.now() < deadline) {
    if (primary_->is_primary() && primary_->has_live_peer()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool EdgeSystem::wait_for_failover(Duration timeout) {
  const TimePoint deadline = clock_.now() + timeout;
  while (clock_.now() < deadline) {
    bool all = backup_->is_primary();
    for (const auto& pub : publishers_) all = all && pub->failed_over();
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

std::uint64_t EdgeSystem::messages_created() const {
  std::uint64_t total = 0;
  for (const auto& pub : publishers_) total += pub->messages_created();
  return total;
}

std::uint64_t EdgeSystem::messages_delivered() const {
  std::uint64_t total = 0;
  for (const auto& sub : subscribers_) total += sub->total_unique();
  return total;
}

SeqNo EdgeSystem::last_seq(TopicId topic) const {
  for (std::size_t i = 0; i < publishers_.size(); ++i) {
    for (const TopicId id : publisher_topics_[i]) {
      if (id == topic) {
        // The engine tracks per-topic sequence numbers.
        return publishers_[i]->messages_created() == 0
                   ? 0
                   : publishers_[i]->last_seq(topic);
      }
    }
  }
  return 0;
}

}  // namespace frame::runtime
