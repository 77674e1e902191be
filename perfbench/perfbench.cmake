# Build file of the repository benchmark. It is grafted onto the
# repository's own build, so the benchmark links the libraries the
# repository builds and compiles with the same definitions and options:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build .bench_build --target perfbench
#
# run.py does both steps. CMake includes this file at the end of every
# project() call; only the first (top-level) one defines the target. The
# definition is deferred to the end of the top-level CMakeLists.txt:
# the directory-wide definitions and options it sets after project()
# (SWEX_MUTATIONS, warnings, sanitizer flags) then apply to the
# benchmark exactly as to the libraries it links, which share inline
# functions that depend on them.

if(DEFINED perfbench_dir)
    return()
endif()
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "perfbench needs CMake 3.19 or newer "
                        "(cmake_language(DEFER))")
endif()
set(perfbench_dir "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
    add_executable(perfbench
        "${perfbench_dir}/src/batch.cc"
        "${perfbench_dir}/src/cells.cc"
        "${perfbench_dir}/src/main.cc"
        "${perfbench_dir}/src/report.cc"
        "${perfbench_dir}/src/serve_mixed.cc"
        "${perfbench_dir}/src/spans.cc"
    )
    target_include_directories(perfbench PRIVATE "${perfbench_dir}/src")
    target_compile_definitions(perfbench PRIVATE
        PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
    target_link_libraries(perfbench PRIVATE swex_exp)
endfunction()
cmake_language(DEFER CALL perfbench_add_target)
