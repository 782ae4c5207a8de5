"""Exit 0 when the benchmark result line on stdin says `correct` is true and
`failed` is 0, else 1.

Usage: tail -n 1 run.log | python3 .github/check_bench_result.py
"""
import json
import sys

res = json.loads(sys.stdin.read())
print("correct:", res["correct"], "failed:", res["failed"])
sys.exit(0 if res["correct"] is True and res["failed"] == 0 else 1)
