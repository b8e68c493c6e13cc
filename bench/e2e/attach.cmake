# Attaches bench/e2e to a configure of the top-level project without
# editing any of its files:
#
#   cmake -S . -B .bench_build/bench-e2e \
#       -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/attach.cmake
#
# CMake includes this file right after the top-level project() call.
# The package's list file is deferred to the end of the top-level file,
# when every library target exists and every project setting is in
# force. A deferred call may not add a subdirectory, hence include().
# Its arguments are expanded when it runs, hence the variable.
set(SPEC17_E2E_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${SPEC17_E2E_LISTS}")
