# Checks that the checked-in seed corpus is exactly what praxi-make-corpus
# generates today: same file names, same bytes. A seed that differs, is
# missing from the regeneration, or exists only in one tree fails the check,
# so every snapshot format (POA1/PCS2/PRX1/...) stays byte-identical unless
# the seeds are deliberately regenerated and committed with the change.
#
#   cmake -DMAKE_CORPUS=<praxi-make-corpus> -DCHECKED_IN=<fuzz/corpus>
#         -DREGENERATED=<scratch dir> -P check_corpus.cmake

cmake_minimum_required(VERSION 3.16)

foreach(var MAKE_CORPUS CHECKED_IN REGENERATED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_corpus.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${REGENERATED}")
execute_process(COMMAND "${MAKE_CORPUS}" "${REGENERATED}"
                RESULT_VARIABLE make_result
                OUTPUT_VARIABLE make_output
                ERROR_VARIABLE make_output)
if(NOT make_result EQUAL 0)
  message(FATAL_ERROR "praxi-make-corpus failed (${make_result}):\n"
                      "${make_output}")
endif()

file(GLOB_RECURSE fresh LIST_DIRECTORIES false RELATIVE "${REGENERATED}"
     "${REGENERATED}/*")
file(GLOB_RECURSE committed LIST_DIRECTORIES false RELATIVE "${CHECKED_IN}"
     "${CHECKED_IN}/*")
list(SORT fresh)
list(SORT committed)
if(NOT fresh)
  message(FATAL_ERROR "praxi-make-corpus wrote no seeds into ${REGENERATED}")
endif()

set(problems "")
foreach(seed IN LISTS fresh)
  if(NOT seed IN_LIST committed)
    string(APPEND problems "  generated but not checked in: ${seed}\n")
  else()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${REGENERATED}/${seed}" "${CHECKED_IN}/${seed}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      string(APPEND problems "  bytes differ: ${seed}\n")
    endif()
  endif()
endforeach()
foreach(seed IN LISTS committed)
  if(NOT seed IN_LIST fresh)
    string(APPEND problems "  checked in but not generated: ${seed}\n")
  endif()
endforeach()

if(problems)
  message(FATAL_ERROR "fuzz/corpus does not match praxi-make-corpus:\n"
                      "${problems}")
endif()
list(LENGTH fresh seed_count)
message(STATUS "fuzz/corpus matches praxi-make-corpus (${seed_count} seeds)")
