# End-to-end tool smoke test (driven by ctest, see CMakeLists.txt):
#   1. write a small community-structured edge list,
#   2. gosh_embed trains it, persists a SHARDED GSHS store and prints its
#      peak RSS,
#   3. gosh_query builds the HNSW index beside the store,
#   4. gosh_query serves vertex + raw-vector + multi-vector + filtered
#      queries through every in-process ServiceRegistry strategy (exact,
#      hnsw, auto, and the aliases batched and router) and dumps a metrics
#      exposition,
#   5. gosh_query --eval checks HNSW recall against the exact scan, and
#      that 32 requests report their slowest latency, not a p99.
#
# Expects -DGOSH_EMBED=..., -DGOSH_QUERY=..., -DWORK_DIR=...
foreach(var GOSH_EMBED GOSH_QUERY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_embed_query.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(edge_file ${WORK_DIR}/smoke_edges.txt)
set(store_file ${WORK_DIR}/smoke.store)
set(query_file ${WORK_DIR}/smoke_queries.txt)

# Four 16-cliques chained by single bridge edges: clique members are each
# other's nearest neighbors by construction, so even a tiny embedding
# separates them.
set(edges "# smoke graph: 4 cliques of 16, bridged\n")
foreach(c RANGE 3)
  math(EXPR base "${c} * 16")
  foreach(i RANGE 15)
    math(EXPR u "${base} + ${i}")
    math(EXPR next "${i} + 1")
    foreach(j RANGE ${next} 15)
      math(EXPR v "${base} + ${j}")
      string(APPEND edges "${u} ${v}\n")
    endforeach()
  endforeach()
  if(c LESS 3)
    math(EXPR bridge_a "${base} + 15")
    math(EXPR bridge_b "${base} + 16")
    string(APPEND edges "${bridge_a} ${bridge_b}\n")
  endif()
endforeach()
file(WRITE ${edge_file} "${edges}")

# Runs one step, fails on a nonzero exit, and leaves its stdout in
# step_output.
function(run_step label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${label} failed (exit ${rv}):\n${out}\n${err}")
  endif()
  message(STATUS "${label}:\n${out}")
  set(step_output "${out}" PARENT_SCOPE)
endfunction()

# 20 rows per shard -> a 4-shard store, so every strategy below scans
# across shard boundaries (router, an alias of exact, with a filter that
# spans three shards).
run_step("gosh_embed -> sharded store"
         ${GOSH_EMBED} --input ${edge_file} --output ${store_file}
         --format store --rows-per-shard 20 --preset fast --dim 16
         --epochs 60 --seed 3)
if(NOT step_output MATCHES "embedded in [^\n]* peak_rss_mib=[0-9]+\\.[0-9]")
  message(FATAL_ERROR
          "gosh_embed must print peak_rss_mib in its summary:\n${step_output}")
endif()

run_step("gosh_query --build-index"
         ${GOSH_QUERY} --store ${store_file} --build-index --M 8
         --ef-construction 64 --seed 3)

# Vertex queries, one raw 16-float vector query, and one multi-vector
# query (';'-separated segments: two stored rows scored jointly).
file(WRITE ${query_file} "0\n17\n40\n0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2 1.3 1.4 1.5 1.6\n40; 41\n")
run_step("gosh_query --queries (exact + metrics)"
         ${GOSH_QUERY} --store ${store_file} --queries ${query_file} --k 5
         --strategy exact --metrics)
run_step("gosh_query --queries (hnsw)"
         ${GOSH_QUERY} --store ${store_file} --queries ${query_file} --k 5
         --strategy hnsw)
run_step("gosh_query --queries (batched)"
         ${GOSH_QUERY} --store ${store_file} --queries ${query_file} --k 5
         --strategy batched --batch 4)
run_step("gosh_query --queries (router, filtered)"
         ${GOSH_QUERY} --store ${store_file} --queries ${query_file} --k 5
         --strategy router --filter 16:48)
run_step("gosh_query --queries (auto)"
         ${GOSH_QUERY} --store ${store_file} --queries ${query_file} --k 5)

# With ef far above |V| the HNSW beam covers the whole layer-0 graph, so
# recall vs the exact scan must be essentially perfect.
run_step("gosh_query --eval"
         ${GOSH_QUERY} --store ${store_file} --eval 32 --k 5 --ef 128
         --strategy hnsw --recall-floor 0.9)
# A p99 needs at least 10 of 1000 requests beyond it; 32 requests cannot
# know one, so each side reports its slowest request as `max`.
if(NOT step_output MATCHES "exact: [^\n]* max [0-9]" OR
   NOT step_output MATCHES "candidate: [^\n]* max [0-9]" OR
   step_output MATCHES "p99")
  message(FATAL_ERROR
          "gosh_query --eval 32 must report max, not p99:\n${step_output}")
endif()
