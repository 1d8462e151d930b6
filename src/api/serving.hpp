// Facade forwarding header: the serving side of the library.
//
// The public surface is gosh::serving — the QueryService interface with
// its QueryRequest/QueryResponse model, the string-keyed ServiceRegistry
// ("exact", "hnsw", "dist-router", "auto", ...), structured ServeOptions
// and the MetricsRegistry sink. EngineService, the "exact" and "hnsw"
// entries, is the one layer between a request and the store. The kernels
// it calls (the gosh/store/ mmap store, the gosh/query/ scan and HNSW
// index) ride along for programmatic composition, but tools, benches and
// examples should speak QueryService only.
#pragma once

#include "gosh/serving/metrics.hpp"
#include "gosh/serving/options.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/serving/service.hpp"

#include "gosh/query/brute_force.hpp"
#include "gosh/query/hnsw.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/store/embedding_store.hpp"
