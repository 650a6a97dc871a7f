"""The end-to-end benchmark: six workloads, per-layer attribution.

``harness.run_workload`` measures one workload; ``run.py`` beside this
package is the command line around it.  See README.md.
"""
