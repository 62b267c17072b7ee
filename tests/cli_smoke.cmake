# CLI robustness smoke test, run via ctest (see tests/CMakeLists.txt).
#
# Every malformed invocation must exit nonzero with a diagnostic on
# stderr — never crash, hang, or terminate() — and a well-formed control
# invocation must still exit zero.
#
# Inputs: -DMP5C=<path> -DMP5SIM=<path> -DMP5FABRIC=<path> -DMP5NATIVE=<path>
#         -DMP5FUZZ=<path>
#         -DABLATION=<path to bench_ablation_remap>
#         -DPYTHON=<python3, may be empty> -DVALIDATOR=<validate_results.py>

# expect_failure(<label> [STDERR <regex>] <command> <args>...): the command
# must exit with a small nonzero code and print a diagnostic on stderr;
# with STDERR, that diagnostic must match <regex>.
function(expect_failure label)
  set(command ${ARGN})
  set(pattern "")
  list(GET command 0 first)
  if(first STREQUAL "STDERR")
    list(GET command 1 pattern)
    list(REMOVE_AT command 0 1)
  endif()
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected nonzero exit, got 0")
  endif()
  # A crash shows up as a signal name ("Segmentation fault", "Subprocess
  # aborted") instead of a small integer exit code.
  if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${label}: abnormal termination (${rc})")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "${label}: expected a diagnostic on stderr")
  endif()
  if(pattern AND NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${label}: expected stderr matching '${pattern}', got '${err}'")
  endif()
endfunction()

# expect_success(<label> [STDOUT <regex>] <command> <args>...): the
# command must exit 0; with STDOUT, its stdout must match <regex>.
function(expect_success label)
  set(command ${ARGN})
  set(pattern "")
  list(GET command 0 first)
  if(first STREQUAL "STDOUT")
    list(GET command 1 pattern)
    list(REMOVE_AT command 0 1)
  endif()
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${rc}: ${err}")
  endif()
  if(pattern AND NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "${label}: expected stdout matching '${pattern}', got '${out}'")
  endif()
endfunction()

set(workdir ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_scratch)
file(MAKE_DIRECTORY ${workdir})

# A syntactically broken Domino program.
file(WRITE ${workdir}/malformed.dom "int x = = ;;; garbage {{{\n")

# -- mp5c --
expect_failure("mp5c malformed program" ${MP5C} ${workdir}/malformed.dom)
expect_failure("mp5c missing file" ${MP5C} ${workdir}/does_not_exist.dom)
expect_failure("mp5c unknown flag" ${MP5C} --no-such-flag)
expect_failure("mp5c bad numeric flag" ${MP5C} --stages notanumber -)
expect_failure("mp5c unknown builtin" ${MP5C} --builtin nope)
expect_success("mp5c builtin control" ${MP5C} --builtin figure3)

# -- mp5sim --
expect_failure("mp5sim unknown flag" ${MP5SIM} --no-such-flag)
expect_failure("mp5sim bad numeric flag"
               ${MP5SIM} --builtin figure3 --packets notanumber)
expect_failure("mp5sim bad fail spec"
               ${MP5SIM} --builtin figure3 --fail-pipeline 2)
expect_failure("mp5sim phantom faults without channel"
               ${MP5SIM} --builtin figure3 --phantom-loss-rate 0.1)
expect_failure("mp5sim out-of-range loss rate"
               ${MP5SIM} --builtin figure3 --phantom-channel
               --phantom-loss-rate 1.5)
expect_failure("mp5sim telemetry under recirculation baseline"
               ${MP5SIM} --builtin figure3 --design recirc --telemetry)
expect_failure("mp5sim trace-out to unwritable path"
               ${MP5SIM} --builtin figure3 --packets 100
               --trace-out ${workdir}/no_such_dir/trace.json)
expect_failure("mp5sim json to unwritable path"
               ${MP5SIM} --builtin figure3 --packets 100
               --json ${workdir}/no_such_dir/results.json)
expect_success("mp5sim control run"
               ${MP5SIM} --builtin figure3 --packets 200 --paranoid)
expect_success("mp5sim telemetry exports control run"
               ${MP5SIM} --builtin figure3 --packets 400 --telemetry
               --json ${workdir}/results.json
               --trace-out ${workdir}/trace.json)
foreach(artifact results.json trace.json)
  if(NOT EXISTS ${workdir}/${artifact})
    message(FATAL_ERROR "mp5sim telemetry exports: missing ${artifact}")
  endif()
endforeach()
# The results documents are schema_version 2; the validator refuses a
# version-1 document with its one-line version error.
if(PYTHON)
  expect_success("validate mp5sim results"
                 ${PYTHON} ${VALIDATOR} ${workdir}/results.json)
  expect_success("mark mp5sim results as version 1"
                 ${PYTHON} -c "import json, sys\nd = json.load(open(sys.argv[1]))\nd['schema_version'] = 1\njson.dump(d, open(sys.argv[2], 'w'))"
                 ${workdir}/results.json ${workdir}/results-v1.json)
  expect_failure("validate a version-1 mp5sim results document"
                 STDERR "unsupported mp5-results schema_version 1"
                 ${PYTHON} ${VALIDATOR} ${workdir}/results-v1.json)
endif()
expect_success("mp5sim fault control run"
               ${MP5SIM} --builtin figure3 --packets 400
               --fail-pipeline 1@50:300 --paranoid)
expect_failure("mp5sim fault plan killing every pipeline"
               ${MP5SIM} --builtin figure3 --packets 400 --pipelines 2
               --fail-pipeline 0@100 --fail-pipeline 1@100)

# -- mp5sim replicated design variants (ISSUE 10) --
expect_failure("mp5sim unknown design"
               ${MP5SIM} --builtin figure3 --packets 200 --design eventual)
expect_failure("mp5sim staleness under mp5 design"
               ${MP5SIM} --builtin figure3 --packets 200 --staleness 8)
expect_failure("mp5sim zero staleness"
               ${MP5SIM} --builtin figure3 --packets 200 --design relaxed
               --staleness 0)
expect_failure("mp5sim staleness under scr design"
               ${MP5SIM} --builtin figure3 --packets 200 --design scr
               --staleness 8)
expect_failure("mp5sim timeline under scr design"
               ${MP5SIM} --builtin figure3 --packets 200 --design scr
               --timeline 50)
expect_success("mp5sim scr control run"
               ${MP5SIM} --builtin figure3 --packets 400 --design scr
               --paranoid)
expect_success("mp5sim relaxed control run"
               ${MP5SIM} --builtin figure3 --packets 400 --design relaxed
               --staleness 32 --paranoid --json ${workdir}/relaxed.json)
if(NOT EXISTS ${workdir}/relaxed.json)
  message(FATAL_ERROR "mp5sim relaxed control run: missing relaxed.json")
endif()
expect_success("mp5sim scr checkpoint control run"
               ${MP5SIM} --builtin figure3 --packets 800 --design scr
               --checkpoint-interval 50
               --checkpoint-out ${workdir}/scr.ckpt --paranoid)
if(NOT EXISTS ${workdir}/scr.ckpt)
  message(FATAL_ERROR "mp5sim scr checkpoint control run: missing scr.ckpt")
endif()
expect_success("mp5sim scr restore control run"
               ${MP5SIM} --builtin figure3 --packets 800 --design scr
               --restore ${workdir}/scr.ckpt --paranoid)
# Cross-variant restore must be refused by the config fingerprint.
expect_failure("mp5sim relaxed restore of scr checkpoint"
               ${MP5SIM} --builtin figure3 --packets 800 --design relaxed
               --staleness 32 --restore ${workdir}/scr.ckpt)

# MP5-only knobs that --design recirc once ignored silently are rejected.
expect_failure("mp5sim recirc rejects fifo-capacity"
               ${MP5SIM} --builtin figure3 --packets 200 --design recirc
               --fifo-capacity 8)
expect_failure("mp5sim recirc rejects phantom-channel"
               ${MP5SIM} --builtin figure3 --packets 200 --design recirc
               --phantom-channel)
expect_failure("mp5sim recirc rejects timeline"
               ${MP5SIM} --builtin figure3 --packets 200 --design recirc
               --timeline 50)
expect_failure("mp5sim recirc rejects staleness"
               ${MP5SIM} --builtin figure3 --packets 200 --design recirc
               --staleness 8)
# One table in mp5sim decides which designs take which flag; these were
# silently ignored (remap) or refused only inside the library.
expect_failure("mp5sim scr rejects remap"
               ${MP5SIM} --builtin figure3 --packets 200 --design scr
               --remap 7)
expect_failure("mp5sim recirc rejects remap"
               ${MP5SIM} --builtin figure3 --packets 200 --design recirc
               --remap 7)
expect_failure("mp5sim relaxed rejects fail-pipeline"
               ${MP5SIM} --builtin figure3 --packets 200 --design relaxed
               --fail-pipeline 1@100)
expect_failure("mp5sim scr rejects telemetry"
               ${MP5SIM} --builtin figure3 --packets 200 --design scr
               --telemetry)

# -- removed cycle-walk engine flags: the event walk is the only engine,
# so its former selectors are unknown options now --
foreach(flag "--engine;event" "--threads;4" "--no-fast-forward")
  expect_failure("mp5sim removed flag ${flag}"
                 ${MP5SIM} --builtin figure3 --packets 200 ${flag})
  expect_failure("mp5fabric removed flag ${flag}"
                 ${MP5FABRIC} --flows 10 ${flag})
endforeach()

# -- mp5sim checkpoint/restore (ISSUE 6) --
expect_failure("mp5sim checkpoint interval without out"
               ${MP5SIM} --builtin figure3 --packets 200
               --checkpoint-interval 100)
expect_failure("mp5sim checkpoint out without interval"
               ${MP5SIM} --builtin figure3 --packets 200
               --checkpoint-out ${workdir}/orphan.ckpt)
expect_failure("mp5sim checkpoint to unwritable path"
               ${MP5SIM} --builtin figure3 --packets 200
               --checkpoint-interval 100
               --checkpoint-out ${workdir}/no_such_dir/ck)
expect_failure("mp5sim restore missing file"
               ${MP5SIM} --builtin figure3 --packets 200
               --restore ${workdir}/does_not_exist.ckpt)
file(WRITE ${workdir}/garbage.ckpt "not a checkpoint at all")
expect_failure("mp5sim restore garbage file"
               ${MP5SIM} --builtin figure3 --packets 200
               --restore ${workdir}/garbage.ckpt)
expect_failure("mp5sim checkpoint under recirculation baseline"
               ${MP5SIM} --builtin figure3 --design recirc --packets 200
               --checkpoint-interval 100
               --checkpoint-out ${workdir}/recirc.ckpt)
expect_success("mp5sim checkpoint control run"
               ${MP5SIM} --builtin figure3 --packets 800
               --checkpoint-interval 50
               --checkpoint-out ${workdir}/figure3.ckpt --paranoid)
if(NOT EXISTS ${workdir}/figure3.ckpt)
  message(FATAL_ERROR "mp5sim checkpoint control run: missing figure3.ckpt")
endif()
expect_success("mp5sim restore control run"
               ${MP5SIM} --builtin figure3 --packets 800
               --restore ${workdir}/figure3.ckpt --paranoid)

# A resumed run prints the same `result digest:` line as the run that
# wrote its checkpoint, for the MP5 and the replicated checkpoints.
function(digest_line out label)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${rc}: ${err}")
  endif()
  string(REGEX MATCH "result digest: 0x[0-9a-f]+" line "${stdout}")
  string(LENGTH "${line}" length)
  if(NOT length EQUAL 33)
    message(FATAL_ERROR "${label}: no 'result digest: 0x<16 hex>' line in '${stdout}'")
  endif()
  set(${out} "${line}" PARENT_SCOPE)
endfunction()
foreach(design mp5 scr)
  digest_line(written "mp5sim ${design} digest checkpointing run"
              ${MP5SIM} --builtin flowlet --packets 4000 --design ${design}
              --checkpoint-interval 400
              --checkpoint-out ${workdir}/digest-${design}.ckpt)
  digest_line(resumed "mp5sim ${design} digest resumed run"
              ${MP5SIM} --builtin flowlet --packets 4000 --design ${design}
              --restore ${workdir}/digest-${design}.ckpt)
  if(NOT written STREQUAL resumed)
    message(FATAL_ERROR "mp5sim ${design}: resumed run printed '${resumed}', "
                        "its checkpointing run '${written}'")
  endif()
endforeach()
# A verified soak writes the simulator and the verifier frame; --restore
# resumes that file with or without verification.
set(soak ${MP5SIM} --builtin synthetic --load 0.9 --packets 20000)
digest_line(written "mp5sim soak digest checkpointing run"
            ${soak} --check-equivalence --checkpoint-interval 2000
            --checkpoint-out ${workdir}/digest-soak.ckpt)
digest_line(resumed "mp5sim soak digest resumed run"
            ${soak} --check-equivalence --restore ${workdir}/digest-soak.ckpt)
digest_line(unverified "mp5sim soak digest resumed without verification"
            ${soak} --restore ${workdir}/digest-soak.ckpt)
if(NOT written STREQUAL resumed OR NOT written STREQUAL unverified)
  message(FATAL_ERROR "mp5sim soak: resumed runs printed '${resumed}' and "
                      "'${unverified}', their checkpointing run '${written}'")
endif()
# Checkpoints an older build wrote (MP5 payload revision 2, replicated
# revision 1: `mp5sim --builtin counter --packets 200
# --checkpoint-interval 40`) carry the result's egress log and are refused.
foreach(old "mp5;mp5-payload-rev2" "scr;scr-payload-rev1")
  list(GET old 0 design)
  list(GET old 1 file)
  expect_failure("mp5sim refuses a ${design} checkpoint of an older revision"
                 STDERR "checkpoint configuration fingerprint mismatch"
                 ${MP5SIM} --builtin counter --packets 200 --design ${design}
                 --restore ${CMAKE_CURRENT_LIST_DIR}/data/${file}.ckpt)
endforeach()
# Only the MP5 soak file carries a verifier frame, so a replicated design
# checks equivalence only on a run without checkpoint flags.
foreach(design scr relaxed)
  expect_failure("mp5sim ${design} refuses a checked checkpointing run"
                 STDERR "--check-equivalence with --checkpoint-interval or --restore applies to --design mp5.* only, not ${design}"
                 ${MP5SIM} --builtin flowlet --packets 4000 --design ${design}
                 --check-equivalence --checkpoint-interval 400
                 --checkpoint-out ${workdir}/checked-${design}.ckpt)
  expect_failure("mp5sim ${design} refuses a checked restore"
                 STDERR "--check-equivalence with --checkpoint-interval or --restore applies to --design mp5.* only, not ${design}"
                 ${MP5SIM} --builtin flowlet --packets 4000 --design ${design}
                 --check-equivalence --restore ${workdir}/digest-${design}.ckpt)
endforeach()
# A checkpoint without the verifier frame cannot resume a verified run.
expect_success("mp5sim soak unverified checkpointing run"
               ${soak} --checkpoint-interval 2000
               --checkpoint-out ${workdir}/unverified-soak.ckpt)
expect_failure("mp5sim soak verified resume of an unverified checkpoint"
               STDERR "no verifier frame"
               ${soak} --check-equivalence
               --restore ${workdir}/unverified-soak.ckpt)

# Checking a run does not change its result: the same digest with and
# without --check-equivalence, with and without a fault plan. Under the
# fault plan the verifier checks the run modulo the dropped packets.
foreach(faults "" "--fail-pipeline;1@2000:4000")
  digest_line(plain "mp5sim digest unchecked ${faults}"
              ${MP5SIM} --builtin flowlet --packets 20000 ${faults})
  digest_line(checked "mp5sim digest checked ${faults}"
              ${MP5SIM} --builtin flowlet --packets 20000 ${faults}
              --check-equivalence)
  if(NOT plain STREQUAL checked)
    message(FATAL_ERROR "mp5sim ${faults}: --check-equivalence printed "
                        "'${checked}', the unchecked run '${plain}'")
  endif()
endforeach()
expect_success("mp5sim verifies a faulty run modulo its drops"
               STDOUT "verified [0-9]+ packets.*functional equivalence: OK"
               ${MP5SIM} --builtin flowlet --packets 20000 --check-equivalence
               --fail-pipeline 1@2000:4000)

# The self-test is an MP5-design flag; the names mp5sim never took stay
# unknown (the cycle ceiling is derived, memory ceilings are
# rss_sampler.py's).
expect_failure("mp5sim scr rejects self-test"
               ${MP5SIM} --builtin figure3 --packets 200 --design scr
               --self-test)
foreach(flag "--field-bound;16" "--resume" "--no-verify" "--synthetic-stages;4"
             "--verify-window;64" "--flows;8" "--max-cycles;1000"
             "--rss-limit-kib;1")
  expect_failure("mp5sim unknown flag ${flag}"
                 ${MP5SIM} --builtin figure3 --packets 200 ${flag})
endforeach()

# -- mp5fabric (ISSUE 7) --
expect_failure("mp5fabric unknown flag" ${MP5FABRIC} --no-such-flag)
expect_failure("mp5fabric zero leaves" ${MP5FABRIC} --leaves 0 --flows 10)
expect_failure("mp5fabric zero link latency"
               ${MP5FABRIC} --link-latency 0 --flows 10)
expect_failure("mp5fabric weight arity mismatch"
               ${MP5FABRIC} --spines 2 --spine-weights 1,2,3 --flows 10)
expect_failure("mp5fabric all-zero weights"
               ${MP5FABRIC} --spines 2 --spine-weights 0,0 --flows 10)
expect_failure("mp5fabric unknown lb mode"
               ${MP5FABRIC} --lb hula --flows 10)
expect_failure("mp5fabric bad fault switch name"
               ${MP5FABRIC} --flows 10 --kill-switch spine9@100)
expect_failure("mp5fabric bad fault spec"
               ${MP5FABRIC} --flows 10 --kill-switch spine1)
expect_failure("mp5fabric bad link spec"
               ${MP5FABRIC} --flows 10 --kill-link leaf0:leaf1@100)
expect_failure("mp5fabric json to unwritable path"
               ${MP5FABRIC} --flows 50 --quiet
               --json ${workdir}/no_such_dir/fabric.json)
expect_success("mp5fabric control run"
               ${MP5FABRIC} --flows 300 --lb conga --quiet --telemetry
               --json ${workdir}/fabric.json)
if(NOT EXISTS ${workdir}/fabric.json)
  message(FATAL_ERROR "mp5fabric control run: missing fabric.json")
endif()
expect_success("mp5fabric fault control run"
               ${MP5FABRIC} --flows 300 --lb flowlet --quiet
               --kill-switch spine1@1000 --kill-link leaf0:spine0@500)
# The same options print the same result digest; another seed another.
digest_line(first "mp5fabric digest run" ${MP5FABRIC} --flows 300)
digest_line(again "mp5fabric digest rerun" ${MP5FABRIC} --flows 300)
digest_line(reseeded "mp5fabric digest run, seed 8"
            ${MP5FABRIC} --flows 300 --seed 8)
if(NOT first STREQUAL again)
  message(FATAL_ERROR "mp5fabric: same-seed runs printed '${first}' and '${again}'")
endif()
if(first STREQUAL reseeded)
  message(FATAL_ERROR "mp5fabric: --seed 8 printed the seed-1 digest '${first}'")
endif()
# Every per-switch entry carries every SimResult counter, and the schema
# validator rejects one without it.
if(PYTHON)
  expect_success("validate mp5fabric results"
                 ${PYTHON} ${VALIDATOR} ${workdir}/fabric.json)
  expect_success("strip one per-switch counter"
                 ${PYTHON} -c "import json, sys\nd = json.load(open(sys.argv[1]))\ndel d['switches'][0]['time_to_recover']\njson.dump(d, open(sys.argv[2], 'w'))"
                 ${workdir}/fabric.json ${workdir}/fabric-nocounter.json)
  expect_failure("validate mp5fabric results without a per-switch counter"
                 STDERR "switches\\[0\\]: missing required key 'time_to_recover'"
                 ${PYTHON} ${VALIDATOR} ${workdir}/fabric-nocounter.json)
endif()

# -- mp5native (ISSUE 9) --
expect_failure("mp5native no program" ${MP5NATIVE})
expect_failure("mp5native unknown flag" ${MP5NATIVE} --no-such-flag)
expect_failure("mp5native malformed program"
               ${MP5NATIVE} ${workdir}/malformed.dom)
expect_failure("mp5native missing program file"
               ${MP5NATIVE} ${workdir}/does_not_exist.dom)
expect_failure("mp5native unknown builtin" ${MP5NATIVE} --builtin nope)
expect_failure("mp5native missing trace file"
               ${MP5NATIVE} --builtin counter
               --trace ${workdir}/does_not_exist.csv)
expect_failure("mp5native zero cores"
               ${MP5NATIVE} --builtin counter --cores 0)
expect_failure("mp5native absurd core count"
               ${MP5NATIVE} --builtin counter --cores 500)
expect_failure("mp5native ring smaller than batch"
               ${MP5NATIVE} --builtin counter --batch 64 --ring-capacity 64)
expect_failure("mp5native unknown policy"
               ${MP5NATIVE} --builtin counter --policy roundrobin)
# Short policy names are rejected: the vocabulary is ShardingPolicy's.
expect_failure("mp5native short policy name"
               ${MP5NATIVE} --builtin counter --policy lpt)
expect_failure("mp5native bad numeric flag"
               ${MP5NATIVE} --builtin counter --packets notanumber)
expect_failure("mp5native json to unwritable path"
               ${MP5NATIVE} --builtin counter --packets 100
               --json ${workdir}/no_such_dir/native.json)
expect_success("mp5native control run"
               ${MP5NATIVE} --builtin counter --packets 5000 --cores 2
               --check --profile --json ${workdir}/native.json)
if(NOT EXISTS ${workdir}/native.json)
  message(FATAL_ERROR "mp5native control run: missing native.json")
endif()
# The results document carries the dispatcher's profile, and the schema
# validator rejects one without it.
if(PYTHON)
  expect_success("validate mp5native results"
                 ${PYTHON} ${VALIDATOR} ${workdir}/native.json)
  expect_success("strip profile.profiler.dispatcher"
                 ${PYTHON} -c "import json, sys\nd = json.load(open(sys.argv[1]))\ndel d['profile']['profiler']['dispatcher']\njson.dump(d, open(sys.argv[2], 'w'))"
                 ${workdir}/native.json ${workdir}/native-nodispatcher.json)
  expect_failure("validate mp5native results without a dispatcher profile"
                 STDERR "missing required key 'dispatcher'"
                 ${PYTHON} ${VALIDATOR} ${workdir}/native-nodispatcher.json)
  # A register's busiest owner ran some of its claims, never more.
  expect_success("raise busiest_owner_accesses past claimed"
                 ${PYTHON} -c "import json, sys\nd = json.load(open(sys.argv[1]))\nr = d['profile']['profiler']['registers'][0]\nr['busiest_owner_accesses'] = r['claimed'] + 1\njson.dump(d, open(sys.argv[2], 'w'))"
                 ${workdir}/native.json ${workdir}/native-busiest.json)
  expect_failure("validate mp5native results with busiest owner past claimed"
                 STDERR "registers\\[0\\]: busiest_owner_accesses [0-9]+ exceeds claimed"
                 ${PYTHON} ${VALIDATOR} ${workdir}/native-busiest.json)
endif()
# The oracle fixes the egress and the final registers (Theorem 1, §2.2.1),
# so neither the core count nor --check moves the result digest.
digest_line(reference "mp5native digest at --cores 1"
            ${MP5NATIVE} --builtin flowlet --packets 5000 --cores 1 --no-pin)
foreach(cores 1 2)
  foreach(check "" "--check")
    digest_line(digest "mp5native digest at --cores ${cores} ${check}"
                ${MP5NATIVE} --builtin flowlet --packets 5000 --cores ${cores}
                --no-pin ${check})
    if(NOT digest STREQUAL reference)
      message(FATAL_ERROR "mp5native --cores ${cores} ${check} printed "
                          "'${digest}', --cores 1 '${reference}'")
    endif()
  endforeach()
endforeach()
# Oversubscribing --cores must warn (the 1-CPU caveat surfaced up front).
execute_process(COMMAND ${MP5NATIVE} --builtin counter --packets 200
                --cores 64 --quiet
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mp5native oversubscribed run: expected exit 0, got ${rc}")
endif()
if(NOT err MATCHES "exceeds")
  message(FATAL_ERROR "mp5native oversubscribed run: expected a --cores warning on stderr, got '${err}'")
endif()
# The check counts the CPUs in the affinity mask, not the host's: two
# workers on one allowed CPU must warn too.
find_program(TASKSET taskset)
if(TASKSET)
  execute_process(COMMAND ${TASKSET} -c 0 true RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    execute_process(COMMAND ${TASKSET} -c 0 ${MP5NATIVE} --builtin flowlet
                    --cores 2 --no-pin --packets 2000
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "mp5native under taskset -c 0: expected exit 0, got ${rc}")
    endif()
    if(NOT err MATCHES "exceeds the 1 CPU")
      message(FATAL_ERROR "mp5native under taskset -c 0: expected a --cores warning on stderr, got '${err}'")
    endif()
  endif()
endif()

# -- strict flag values: one parser for every numeric flag of every tool.
# A value must be one whole number of the flag's type; the diagnostic
# names the flag and the text --
expect_failure("mp5c trailing garbage" STDERR "--stages: .*'8x'"
               ${MP5C} --builtin flowlet --stages 8x)
expect_failure("mp5sim trailing garbage" STDERR "--packets: .*'2000x'"
               ${MP5SIM} --builtin figure3 --packets 2000x)
expect_failure("mp5sim trailing garbage, 32-bit"
               STDERR "--pipelines: expected an unsigned 32-bit integer, got '4abc'"
               ${MP5SIM} --builtin figure3 --pipelines 4abc)
expect_failure("mp5native trailing garbage" STDERR "--cores: .*'2x'"
               ${MP5NATIVE} --builtin counter --cores 2x)
expect_failure("mp5sim trailing garbage, soak flag"
               STDERR "--checkpoint-interval: .*'4000x'"
               ${MP5SIM} --builtin figure3 --checkpoint-interval 4000x)
expect_failure("mp5fabric trailing garbage" STDERR "--flows: .*'600x'"
               ${MP5FABRIC} --flows 600x)
expect_failure("mp5fuzz trailing garbage" STDERR "--seeds: .*'1x'"
               ${MP5FUZZ} --seeds 1x)
expect_failure("mp5sim negative pipelines" STDERR "--pipelines: .*'-1'"
               ${MP5SIM} --builtin figure3 --pipelines -1)
expect_failure("mp5sim negative load" STDERR "--load: .*'-1'"
               ${MP5SIM} --builtin figure3 --load -1)
expect_failure("mp5sim malformed real"
               STDERR "--load: expected a finite real number, got '0.5x'"
               ${MP5SIM} --builtin figure3 --load 0.5x)
expect_failure("mp5sim malformed signed value"
               STDERR "--rand-fields: expected a signed 64-bit integer, got '8x'"
               ${MP5SIM} --builtin figure3 --rand-fields 8x)
expect_failure("mp5sim seed without a value" STDERR "--seed needs an argument"
               ${MP5SIM} --builtin figure3 --seed)

# -- one trace reader: a trace mp5sim saves replays in all three tools
# that take --trace, and all three refuse the same trace out of order --
digest_line(saved "mp5sim save trace"
            ${MP5SIM} --builtin figure3 --packets 300
            --save-trace ${workdir}/saved.trace.csv)
digest_line(replayed "mp5sim replays the saved trace"
            ${MP5SIM} --builtin figure3 --check-equivalence
            --trace ${workdir}/saved.trace.csv)
if(NOT saved STREQUAL replayed)
  message(FATAL_ERROR "mp5sim: the replayed trace printed '${replayed}', "
                      "the run that saved it '${saved}'")
endif()
expect_success("mp5native replays the saved trace"
               ${MP5NATIVE} --builtin figure3 --cores 2 --check
               --trace ${workdir}/saved.trace.csv)
# Swap the first two packets (row 0 is the header comment).
file(STRINGS ${workdir}/saved.trace.csv rows)
list(GET rows 1 first_packet)
list(REMOVE_AT rows 1)
list(INSERT rows 2 "${first_packet}")
list(JOIN rows "\n" unsorted)
file(WRITE ${workdir}/unsorted.trace.csv "${unsorted}\n")
foreach(tool "mp5sim --check-equivalence;${MP5SIM};--check-equivalence"
             "mp5sim;${MP5SIM};--paranoid"
             "mp5native --check;${MP5NATIVE};--check"
             "mp5native;${MP5NATIVE};--quiet")
  list(GET tool 0 name)
  list(GET tool 1 binary)
  list(GET tool 2 flag)
  expect_failure("${name} rejects an out-of-order trace"
                 STDERR "line 3: out of admission order"
                 ${binary} --builtin figure3 ${flag}
                 --trace ${workdir}/unsorted.trace.csv)
endforeach()
# A stored trace's cycle ceiling leaves room past its last arrival, so
# one that spans more than SimOptions' default 5M cycles still runs.
file(WRITE ${workdir}/late.trace.csv
     "0,3,64,17,169,363,113,152,228\n6000000,1,64,5,253,597,49,617,225\n")
expect_success("mp5sim runs a trace past the default cycle ceiling"
               STDOUT "verified 2 packets.*functional equivalence: OK"
               ${MP5SIM} --builtin figure3 --check-equivalence
               --trace ${workdir}/late.trace.csv)

# -- flags whose paths no other test takes --
expect_success("mp5sim random field values" STDOUT "result digest: 0x"
               ${MP5SIM} --builtin figure3 --packets 200 --rand-fields 16)
expect_success("mp5sim soak field bound" STDOUT "result digest: 0xebb96b9e02ae7e7f"
               ${MP5SIM} --builtin synthetic --load 0.9 --check-equivalence
               --packets 500 --rand-fields 16)
expect_success("mp5sim prints the timeline" STDOUT "cycle [0-9]+  pipe [0-9]+  stage "
               ${MP5SIM} --builtin figure3 --packets 50 --timeline 5)
expect_success("mp5fuzz replays a reproducer" STDOUT "observed: variant-divergence.*OK"
               ${MP5FUZZ} --replay
               ${CMAKE_CURRENT_LIST_DIR}/corpus/witness-scr-write-replay.json)

# -- bench_ablation_remap --
# A misspelt flag must not silently run all five ablation sections.
expect_failure("bench_ablation_remap unknown flag"
               ${ABLATION} --only_sparse)
