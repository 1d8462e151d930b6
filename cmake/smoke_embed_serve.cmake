# End-to-end serving smoke test (driven by ctest, see CMakeLists.txt):
#   1. write a small community-structured edge list,
#   2. gosh_embed trains it and persists a GSHS store,
#   3. gosh_serve starts in the background on an EPHEMERAL port with the
#      batched strategy (an alias of auto, so exact here: no index is
#      built) behind the semantic cache (--cache
#      --cache-threshold 0.99) and full tracing (--trace-sample-rate 1
#      --trace-out), announcing the port through --port-file (written
#      temp+rename, so this script can poll without ever reading a
#      partial file),
#   4. bench_serve_throughput --connect drives /healthz, a closed-loop
#      POST /v1/query phase, a /metrics scrape (verifying the Prometheus
#      exposition carries the per-endpoint series), --expect-traces (one
#      POST under an explicit X-Request-Id whose span chain must come
#      back from /debug/traces), --expect-cache (the same query POSTed
#      twice: the replay must be annotated "cache":["hit"], count a
#      nonzero gosh_cache_hits_total in /metrics, and leave a
#      cache-lookup span under its request id), and --shutdown posts
#      /admin/shutdown,
#   5. the script polls the server PID until it is gone — a hung worker or
#      leaked thread turns up here as a timeout, not a green run — and
#      then requires the --trace-out Chrome trace JSON on disk (CI
#      uploads it as an artifact).
#
# Expects -DGOSH_EMBED=..., -DGOSH_SERVE=..., -DSERVE_BENCH=...,
# -DWORK_DIR=...
cmake_policy(SET CMP0012 NEW)  # let while(TRUE) mean the boolean

foreach(var GOSH_EMBED GOSH_SERVE SERVE_BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_embed_serve.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(edge_file ${WORK_DIR}/serve_edges.txt)
set(store_file ${WORK_DIR}/serve.store)
set(port_file ${WORK_DIR}/serve.port)
set(pid_file ${WORK_DIR}/serve.pid)
set(log_file ${WORK_DIR}/serve.log)
set(trace_file ${WORK_DIR}/serve_trace.json)
file(REMOVE ${port_file} ${pid_file} ${log_file} ${trace_file})

# Four 16-cliques chained by bridge edges — 64 vertices, same shape the
# embed+query smoke trains.
set(edges "# serve smoke graph: 4 cliques of 16, bridged\n")
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

function(run_step label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${label} failed (exit ${rv}):\n${out}\n${err}")
  endif()
  message(STATUS "${label}:\n${out}")
endfunction()

function(dump_server_log_and_die reason)
  set(log "<no log>")
  if(EXISTS ${log_file})
    file(READ ${log_file} log)
  endif()
  message(FATAL_ERROR "${reason}\ngosh_serve log:\n${log}")
endfunction()

run_step("gosh_embed -> store"
         ${GOSH_EMBED} --input ${edge_file} --output ${store_file}
         --format store --preset fast --dim 16 --epochs 60 --seed 3)

# Background launch: sh detaches the server and leaves its PID behind for
# the exit check. Port 0 = the OS picks; --port-file announces the choice.
execute_process(
  COMMAND sh -c "'${GOSH_SERVE}' --store '${store_file}' --strategy batched \
--cache --cache-threshold 0.99 \
--k 5 --port 0 --port-file '${port_file}' --threads 2 \
--allow-remote-shutdown --trace-sample-rate 1 --trace-out '${trace_file}' \
> '${log_file}' 2>&1 & echo $! > '${pid_file}'"
  RESULT_VARIABLE launch_rv)
if(NOT launch_rv EQUAL 0)
  dump_server_log_and_die("could not launch gosh_serve (exit ${launch_rv})")
endif()
file(READ ${pid_file} server_pid)
string(STRIP "${server_pid}" server_pid)

# Wait for listen(): the port file appears only after bind succeeded.
set(waited 0)
while(NOT EXISTS ${port_file})
  if(waited GREATER 100)  # 20 s
    execute_process(COMMAND sh -c "kill -9 ${server_pid} 2>/dev/null")
    dump_server_log_and_die("gosh_serve never announced its port")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  math(EXPR waited "${waited} + 1")
endwhile()
file(READ ${port_file} server_port)
string(STRIP "${server_port}" server_port)
message(STATUS "gosh_serve is listening on 127.0.0.1:${server_port} "
               "(pid ${server_pid})")

# Drive the wire: health check, closed-loop queries at two concurrency
# levels, the /metrics scrape, the end-to-end tracing probe (POST under a
# known X-Request-Id, then /debug/traces must report its span chain), the
# semantic-cache probe (a replayed query must be a hit with the counter
# and span to prove it), then the remote shutdown.
run_step("bench_serve_throughput --connect"
         ${SERVE_BENCH} --connect 127.0.0.1:${server_port} --rows 64 --k 5
         --requests 64 --concurrency 1,2 --expect-traces --expect-cache
         --shutdown)

# Clean shutdown is part of the contract: the process must be GONE.
set(waited 0)
while(TRUE)
  execute_process(COMMAND sh -c "kill -0 ${server_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    break()
  endif()
  if(waited GREATER 100)  # 20 s
    execute_process(COMMAND sh -c "kill -9 ${server_pid} 2>/dev/null")
    dump_server_log_and_die(
        "gosh_serve is still running after /admin/shutdown")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  math(EXPR waited "${waited} + 1")
endwhile()

file(READ ${log_file} log)
message(STATUS "gosh_serve exited cleanly; log:\n${log}")

# The exit path must have flushed the trace ring: a Chrome trace JSON
# with the span events the probe asserted over the wire. Both cache
# halves must appear: cache-lookup on every query, queue-wait + scan +
# cache-insert on the misses.
if(NOT EXISTS ${trace_file})
  message(FATAL_ERROR "gosh_serve --trace-out left no ${trace_file}")
endif()
file(READ ${trace_file} trace_json)
foreach(needle "\"traceEvents\"" "\"handler\"" "\"cache-lookup\""
        "\"queue-wait\"" "\"scan\"" "\"cache-insert\"")
  string(FIND "${trace_json}" ${needle} at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "trace JSON is missing ${needle}:\n${trace_json}")
  endif()
endforeach()
message(STATUS "trace JSON written: ${trace_file}")
