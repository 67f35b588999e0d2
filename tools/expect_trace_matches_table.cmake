# Assert that lotec_sim's --trace CSV holds one data row per message its
# report table counts for the same (last) protocol:
#
#   cmake -DCMD=<lotec_sim> -DARGS="a;b;c" -DTRACE=<csv> -DPROTOCOL=LOTEC
#         -P expect_trace_matches_table.cmake
if(NOT DEFINED CMD OR NOT DEFINED TRACE OR NOT DEFINED PROTOCOL)
  message(FATAL_ERROR
          "expect_trace_matches_table.cmake needs -DCMD=, -DTRACE= and "
          "-DPROTOCOL=")
endif()
separate_arguments(ARGS)
file(REMOVE ${TRACE})
execute_process(COMMAND ${CMD} ${ARGS} --trace=${TRACE} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${rc}\n${out}\n${err}")
endif()
# Table columns: Protocol Committed Aborted "DL retries" Messages ...
if(NOT out MATCHES "\n${PROTOCOL} +[0-9]+ +[0-9]+ +[0-9]+ +([0-9]+) ")
  message(FATAL_ERROR "no ${PROTOCOL} row in the report table:\n${out}")
endif()
set(table_messages ${CMAKE_MATCH_1})
file(STRINGS ${TRACE} lines)
list(LENGTH lines line_count)
math(EXPR trace_rows "${line_count} - 1")  # minus the CSV header
if(NOT trace_rows EQUAL table_messages)
  message(FATAL_ERROR
          "--trace wrote ${trace_rows} messages but the table reports "
          "${table_messages}:\n${out}")
endif()
