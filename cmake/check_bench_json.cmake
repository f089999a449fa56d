# Validates a BENCH_<name>.json produced by bench/bench_json.h: it must
# parse, name the bench, carry a wall time, and report at least 3 obs
# counters.
# Usage: cmake -DJSON_FILE=path/to/BENCH_x.json -P check_bench_json.cmake
#
# Optionally pass -DREQUIRE_BENCH_COUNTERS=a,b,c (comma-separated): each
# named user counter must appear in at least one benchmark record. The memo
# fixture uses this to pin hit_rate and speedup_vs_cold into BENCH_memo.json.
set(MIN_OBS_COUNTERS 3)
file(READ "${JSON_FILE}" content)
string(JSON bench_name GET "${content}" bench)
string(JSON wall_time GET "${content}" wall_time_s)
string(JSON n_counters LENGTH "${content}" obs counters)
if(n_counters LESS MIN_OBS_COUNTERS)
  message(FATAL_ERROR
    "${JSON_FILE}: expected >= ${MIN_OBS_COUNTERS} obs counters, got ${n_counters}")
endif()

# Every histogram in the obs block must carry the fixed 32-entry log2
# buckets array (obs/metrics.h kHistogramBuckets) — the field downstream
# consumers (ExportPrometheusText, bench dashboards) key on.
string(JSON n_histograms ERROR_VARIABLE hist_error LENGTH "${content}" obs histograms)
if(NOT hist_error AND n_histograms GREATER 0)
  math(EXPR last_hist "${n_histograms} - 1")
  foreach(i RANGE ${last_hist})
    string(JSON hist_name MEMBER "${content}" obs histograms ${i})
    string(JSON n_buckets ERROR_VARIABLE bucket_error
           LENGTH "${content}" obs histograms "${hist_name}" buckets)
    if(bucket_error OR NOT n_buckets EQUAL 32)
      message(FATAL_ERROR
        "${JSON_FILE}: histogram '${hist_name}' lacks a 32-entry buckets array"
        " (got '${n_buckets}${bucket_error}')")
    endif()
  endforeach()
  message(STATUS "${JSON_FILE}: ${n_histograms} histograms carry 32-entry buckets")
endif()

if(DEFINED REQUIRE_BENCH_COUNTERS)
  string(REPLACE "," ";" required_counters "${REQUIRE_BENCH_COUNTERS}")
  string(JSON n_benchmarks LENGTH "${content}" benchmarks)
  if(n_benchmarks LESS 1)
    message(FATAL_ERROR "${JSON_FILE}: no benchmark records")
  endif()
  math(EXPR last_record "${n_benchmarks} - 1")
  foreach(counter IN LISTS required_counters)
    set(counter_found FALSE)
    foreach(i RANGE ${last_record})
      string(JSON value ERROR_VARIABLE json_error
             GET "${content}" benchmarks ${i} counters ${counter})
      if(NOT json_error)
        set(counter_found TRUE)
        message(STATUS "${JSON_FILE}: counter ${counter}=${value} (record ${i})")
        break()
      endif()
    endforeach()
    if(NOT counter_found)
      message(FATAL_ERROR
        "${JSON_FILE}: required counter '${counter}' missing from every benchmark record")
    endif()
  endforeach()
endif()

message(STATUS "${JSON_FILE} ok: bench=${bench_name} wall_time_s=${wall_time} obs_counters=${n_counters}")
