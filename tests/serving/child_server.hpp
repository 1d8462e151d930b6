// An in-process "shard child" for the distributed-serving tests: the
// exact stack gosh_serve wires — HttpServer over QueryHandler over
// make_service — plus the ready HealthState a ReplicaSet probe reads.
// stop()/start() cycle the HTTP front on a FIXED port (the listener sets
// SO_REUSEADDR) while the service stays loaded, which is how the recovery
// tests "kill" and "restart" a child without paying a process boundary.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "gosh/net/fault_injector.hpp"
#include "gosh/net/query_handler.hpp"
#include "gosh/net/server.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/serving/remote.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::serving {

class ChildServer {
 public:
  /// An HTTP worker owns one connection at a time, so a child needs one
  /// worker per concurrent caller to answer them all at once.
  explicit ChildServer(const ServeOptions& serve,
                       const net::FaultOptions& chaos = {},
                       unsigned http_threads = 2)
      : chaos_(chaos) {
    auto service = make_service(serve, &metrics_);
    EXPECT_TRUE(service.ok()) << service.status().to_string();
    if (!service.ok()) return;
    service_ = std::move(service).value();
    handler_ = std::make_unique<net::QueryHandler>(*service_);
    health_.rows.store(service_->rows(), std::memory_order_relaxed);
    health_.dim.store(service_->dim(), std::memory_order_relaxed);
    health_.shards.store(serve.shard_count > 0 ? serve.shard_count : 1,
                         std::memory_order_relaxed);
    health_.ready.store(true, std::memory_order_release);
    net_options_.host = "127.0.0.1";
    net_options_.port = 0;  // ephemeral on the FIRST start, pinned after
    net_options_.threads = http_threads;
    start();
  }

  ~ChildServer() { stop(); }

  ChildServer(const ChildServer&) = delete;
  ChildServer& operator=(const ChildServer&) = delete;

  /// (Re)starts the HTTP front. After the first start the bound port is
  /// pinned, so a stop()/start() cycle models a child process restarting
  /// on its configured address.
  void start() {
    server_ = std::make_unique<net::HttpServer>(net_options_, &metrics_);
    server_->fault_injector().configure(chaos_);
    net::QueryHandler* handler = handler_.get();
    server_->handle("POST", "/v1/query",
                    [handler](const net::HttpRequest& request) {
                      return handler->handle(request);
                    });
    net::add_builtin_routes(*server_, metrics_, nullptr, &health_);
    const api::Status started = server_->start();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
    net_options_.port = server_->port();
  }

  /// Stops answering (listener closed, workers joined) — the "killed
  /// child" half of the recovery tests. Idempotent.
  void stop() {
    if (server_ != nullptr) {
      server_->shutdown();
      server_.reset();
    }
  }

  unsigned short port() const { return net_options_.port; }
  Endpoint endpoint() const { return Endpoint{"127.0.0.1", port()}; }
  MetricsRegistry& metrics() { return metrics_; }
  net::HealthState& health() { return health_; }
  net::HttpServer& server() { return *server_; }

 private:
  net::FaultOptions chaos_;
  MetricsRegistry metrics_;
  net::HealthState health_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<net::QueryHandler> handler_;
  net::NetOptions net_options_;
  std::unique_ptr<net::HttpServer> server_;
};

}  // namespace gosh::serving
