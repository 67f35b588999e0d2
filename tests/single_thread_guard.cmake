# Single-threading guard: the runtime runs every family as a fiber on the
# caller's thread, so src/ must not grow threads, locks or atomics back.
# Fails when a thread, lock or atomic type (std::thread, std::jthread,
# std::async, any std::*mutex, std::scoped_lock/unique_lock/shared_lock/
# lock_guard, std::atomic*, condition_variable*), thread_local, a pthread_
# call, or an include of <thread>, <mutex>, <shared_mutex>, <atomic>,
# <condition_variable> or <future> appears under SRC outside the allowlist:
#   - common/logging.hpp (the process-global Logger), and
#   - the intern_message_kind() static in obs/span.cpp (process-global),
#     with the <mutex> include it needs.
# Both are shared by Clusters that run on different threads.
#
#   cmake -DSRC=<src dir> -P single_thread_guard.cmake
if(NOT DEFINED SRC)
  message(FATAL_ERROR "single_thread_guard.cmake needs -DSRC=")
endif()

set(pattern "[^\n]*(std::(j?thread|async|[a-z_]*mutex|scoped_lock|unique_lock|shared_lock|lock_guard|atomic)|condition_variable|thread_local|pthread_|#include <(thread|mutex|shared_mutex|atomic|condition_variable|future)>)[^\n]*")
get_filename_component(SRC "${SRC}" ABSOLUTE)
file(GLOB_RECURSE sources RELATIVE "${SRC}" "${SRC}/*.cpp" "${SRC}/*.hpp")
if(NOT sources)
  message(FATAL_ERROR "no .cpp/.hpp files under ${SRC}")
endif()
set(violations "")
foreach(rel IN LISTS sources)
  if(rel STREQUAL "common/logging.hpp")
    continue()
  endif()
  file(READ "${SRC}/${rel}" content)
  if(rel STREQUAL "obs/span.cpp")
    string(REPLACE "#include <mutex>\n" "" content "${content}")
    # Cut out the body of intern_message_kind() (up to its closing brace).
    string(FIND "${content}" "std::string_view intern_message_kind(" start)
    if(start GREATER_EQUAL 0)
      string(SUBSTRING "${content}" ${start} -1 tail)
      string(FIND "${tail}" "\n}\n" length)
      string(SUBSTRING "${content}" 0 ${start} head)
      math(EXPR after "${start} + ${length}")
      string(SUBSTRING "${content}" ${after} -1 rest)
      set(content "${head}${rest}")
    endif()
  endif()
  string(REGEX MATCHALL "${pattern}" hits "${content}")
  if(hits)
    string(REPLACE ";" "\n    " hits "${hits}")
    string(APPEND violations "  ${rel}:\n    ${hits}\n")
  endif()
endforeach()

if(NOT violations STREQUAL "")
  message(FATAL_ERROR
          "thread/lock/atomic primitives outside the allowlist:\n"
          "${violations}")
endif()
