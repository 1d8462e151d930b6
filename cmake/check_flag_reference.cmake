# README flag reference check (driven by ctest as docs.flag_reference, see
# CMakeLists.txt). Every README block introduced by a marker line
#
#   <!-- flag-reference: TOOL -->                 the whole `TOOL --help`
#   <!-- flag-reference: TOOL "GROUP" -->         one group of it
#
# and followed by a ```text fence must equal that tool's --help output (or
# the GROUP heading through the end of its group). A difference fails with
# a diff; -DUPDATE=ON rewrites the blocks from the tools instead.
#
# Expects -DREADME=... -DGOSH_EMBED=... -DGOSH_QUERY=... -DGOSH_SERVE=...
# -DWORK_DIR=...
cmake_minimum_required(VERSION 3.20)  # script mode: modern if()/while()
foreach(var README GOSH_EMBED GOSH_QUERY GOSH_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_flag_reference.cmake needs -D${var}=...")
  endif()
endforeach()
set(tool_gosh_embed ${GOSH_EMBED})
set(tool_gosh_query ${GOSH_QUERY})
set(tool_gosh_serve ${GOSH_SERVE})

file(MAKE_DIRECTORY ${WORK_DIR})
file(READ ${README} readme)
set(marker_regex "<!-- flag-reference: ([a-z_]+)( \"([^\"]*)\")? -->\n")
set(fence "```text\n")

set(out "")        # README rebuilt with fresh blocks (for UPDATE)
set(rest "${readme}")
set(failures 0)
set(tools_seen "")
while(TRUE)
  string(REGEX MATCH "${marker_regex}" marker "${rest}")
  if(NOT marker)
    break()
  endif()
  set(tool ${CMAKE_MATCH_1})
  set(group "${CMAKE_MATCH_3}")
  list(APPEND tools_seen ${tool})
  if(NOT DEFINED tool_${tool})
    message(FATAL_ERROR "flag-reference marker names unknown tool '${tool}'")
  endif()

  # Split `rest` into: text through the opening fence | block | the rest.
  string(FIND "${rest}" "${marker}" at)
  string(LENGTH "${marker}" marker_length)
  math(EXPR after_marker "${at} + ${marker_length}")
  string(SUBSTRING "${rest}" ${after_marker} -1 tail)
  string(FIND "${tail}" "${fence}" open)
  if(NOT open EQUAL 0)
    message(FATAL_ERROR "${marker} must be followed by a ${fence} fence")
  endif()
  string(LENGTH "${fence}" fence_length)
  string(SUBSTRING "${tail}" ${fence_length} -1 tail)
  string(FIND "${tail}" "```" close)
  if(close EQUAL -1)
    message(FATAL_ERROR "unterminated fence after ${marker}")
  endif()
  string(SUBSTRING "${tail}" 0 ${close} block)
  string(SUBSTRING "${tail}" ${close} -1 tail)
  string(SUBSTRING "${rest}" 0 ${after_marker} head)
  string(APPEND out "${head}${fence}")
  set(rest "${tail}")

  execute_process(COMMAND ${tool_${tool}} --help
                  RESULT_VARIABLE rv OUTPUT_VARIABLE help)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${tool} --help failed (exit ${rv})")
  endif()
  set(expected "${help}")
  if(NOT group STREQUAL "")
    string(FIND "\n${help}" "\n${group}:\n" start)
    if(start EQUAL -1)
      message(FATAL_ERROR "${tool} --help has no group '${group}'")
    endif()
    string(SUBSTRING "${help}" ${start} -1 expected)
    string(FIND "${expected}" "\n\n" end)
    if(NOT end EQUAL -1)
      math(EXPR end "${end} + 1")
      string(SUBSTRING "${expected}" 0 ${end} expected)
    endif()
  endif()
  string(APPEND out "${expected}")

  if(NOT UPDATE AND NOT block STREQUAL expected)
    math(EXPR failures "${failures} + 1")
    string(MAKE_C_IDENTIFIER "${tool}_${group}" name)
    file(WRITE ${WORK_DIR}/${name}.readme "${block}")
    file(WRITE ${WORK_DIR}/${name}.help "${expected}")
    find_program(DIFF diff)
    set(diff_text "")
    if(DIFF)
      execute_process(COMMAND ${DIFF} -u ${WORK_DIR}/${name}.readme
                              ${WORK_DIR}/${name}.help
                      OUTPUT_VARIABLE diff_text)
    endif()
    string(STRIP "${marker}" marker)
    message(NOTICE "${diff_text}")
    message(SEND_ERROR "README block '${marker}' differs from "
                       "`${tool} --help` (diff above: - README, + tool)")
  endif()
endwhile()
string(APPEND out "${rest}")

foreach(tool gosh_embed gosh_query gosh_serve)
  if(NOT tool IN_LIST tools_seen)
    message(SEND_ERROR "README has no flag-reference block for ${tool}")
  endif()
endforeach()

if(UPDATE)
  file(WRITE ${README} "${out}")
  message(STATUS "rewrote the flag-reference blocks of ${README}")
elseif(failures GREATER 0)
  message(FATAL_ERROR "${failures} README flag-reference block(s) are stale; "
                      "rerun with -DUPDATE=ON to regenerate them")
endif()
