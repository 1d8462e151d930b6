// A QueryService stub for the layers that wrap one: every query is
// answered with the same single neighbor, and `degraded` turns the answer
// into a partial merge with shard 1 missing, as a DistRouter reports one
// when a shard child is down.
#pragma once

#include <vector>

#include "gosh/serving/service.hpp"

namespace gosh::serving {

class StubService final : public QueryService {
 public:
  api::Result<QueryResponse> serve(const QueryRequest& request) override {
    QueryResponse response;
    response.results.assign(request.queries.size(), {Neighbor{3, 0.5f}});
    if (degraded) {
      response.degraded = true;
      response.shards.resize(2);
      response.shards[0].backend = "127.0.0.1:7001";
      response.shards[0].ok = true;
      response.shards[1].shard = 1;
      response.shards[1].backend = "127.0.0.1:7002";
      response.shards[1].error = "deadline exceeded";
    }
    return response;
  }
  vid_t rows() const noexcept override { return 100; }
  unsigned dim() const noexcept override { return 4; }
  Metric default_metric() const noexcept override { return Metric::kCosine; }
  std::string_view strategy_name() const noexcept override { return "stub"; }
  api::Result<std::vector<float>> row_vector(vid_t v) const override {
    return std::vector<float>{static_cast<float>(v), 1.0f, 2.0f, 3.0f};
  }

  bool degraded = false;
};

}  // namespace gosh::serving
