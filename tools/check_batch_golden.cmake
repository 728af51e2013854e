# CTest script: runs `cntyield_cli batch --mc-samples=1000` three ways —
# the default shared-table sweep, --no-interp (exact p_F) and
# --scenario=removal (the table built at the derived corner) — and diffs
# their concatenated *table rows* against the checked-in golden
# (tools/golden/batch_rows.txt). Only lines starting with '|' are
# compared: the footer carries timings.
#
# Usage:
#   cmake -DCLI=<cntyield_cli> -DGOLDEN=<batch_rows.txt>
#         -P check_batch_golden.cmake
if(NOT DEFINED CLI OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DGOLDEN=... -P check_batch_golden.cmake")
endif()

set(rows "")
foreach(extra IN ITEMS "" --no-interp --scenario=removal)
  execute_process(COMMAND ${CLI} batch --mc-samples=1000 ${extra}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "batch ${extra} exited with ${rc}:\n${out}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    if(line MATCHES "^\\|")
      string(APPEND rows "${line}\n")
    endif()
  endforeach()
endforeach()

file(READ ${GOLDEN} golden)
if(NOT rows STREQUAL golden)
  message(FATAL_ERROR "batch table rows diverged from ${GOLDEN}\n"
                      "--- got ---\n${rows}--- want ---\n${golden}")
endif()
