# Regenerates htdp_git_rev.h with the current HEAD revision. Run as a build
# step (see bench/CMakeLists.txt) rather than at configure time, so
# incremental rebuilds after new commits never bake a stale revision into
# the BENCH_*.json perf trajectories. Writes only on change to avoid
# spurious rebuilds.
#
# Inputs: HTDP_GIT_REV_OUT (header path), HTDP_SOURCE_DIR (repo root).

execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${HTDP_SOURCE_DIR}"
  OUTPUT_VARIABLE HTDP_GIT_REV
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT HTDP_GIT_REV)
  set(HTDP_GIT_REV "unknown")
else()
  # A build of uncommitted tracked changes is not that revision: mark it.
  execute_process(
    COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${HTDP_SOURCE_DIR}"
    OUTPUT_VARIABLE HTDP_GIT_DIRTY
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(HTDP_GIT_DIRTY)
    set(HTDP_GIT_REV "${HTDP_GIT_REV}-dirty")
  endif()
endif()

set(content "#define HTDP_GIT_REV \"${HTDP_GIT_REV}\"\n")
set(previous "")
if(EXISTS "${HTDP_GIT_REV_OUT}")
  file(READ "${HTDP_GIT_REV_OUT}" previous)
endif()
if(NOT content STREQUAL previous)
  file(WRITE "${HTDP_GIT_REV_OUT}" "${content}")
endif()
