"""Event-triggered insulin control on a simulated artificial pancreas.

A self-contained library + CLI: a 13-state virtual-patient plant with a
CGM sensor and insulin pump, randomized meal scenarios, PPO trainers for
periodic, event-augmented, and CGM-threshold-triggered (SMDP) control, a
tuned PID baseline, and greedy evaluation that writes metrics and figure data.
"""
