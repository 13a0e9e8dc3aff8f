#!/usr/bin/env bash
# spark-submit wrapper for the table jobs: jobs/run_table.sh <group> [sims]
#   jobs/run_table.sh stats          # Table 1 (+ mixing times)
#   jobs/run_table.sh facebook       # Table 4
#   jobs/run_table.sh gplus          # Table 5
#   jobs/run_table.sh pokec          # Tables 6-9
#   jobs/run_table.sh orkut          # Tables 10-13
#   jobs/run_table.sh livejournal    # Tables 14-17
#   jobs/run_table.sh bounds         # Tables 18-22
#   jobs/run_table.sh summary        # Tables 23-26
#   jobs/run_table.sh all 200        # Tables 1 and 4-26, 200 sims per cell
set -euo pipefail
cd "$(dirname "$0")/.."
sbt -batch package
JAR=$(ls target/scala-2.13/repro_*.jar | grep -v -- -tests.jar | head -1)
exec /opt/spark/bin/spark-submit \
  --master "${SPARK_MASTER:-local[*]}" \
  --driver-memory "${SPARK_DRIVER_MEM:-8g}" \
  --class repro.jobs.RunTables "$JAR" "$@"
