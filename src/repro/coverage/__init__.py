"""Behavior-coverage-guided fuzzing.

This subsystem turns every simulation the fuzzer already runs into *search
signal about behavioral diversity*:

* :mod:`signature` — extract a deterministic :class:`BehaviorSignature`
  (state-machine transition multiset, quantized egress-rate shape, episode
  buckets, stall class, goodput bucket) from each simulation's streaming
  counters;
* :mod:`archive` — a MAP-Elites :class:`BehaviorArchive` mapping descriptor
  cells to the best trace seen in each behavioral regime, serializable
  into a campaign corpus directory;
* :mod:`guidance` — pluggable ``score``/``novelty`` strategies
  that blend archive rarity into GA selection and immigrate traces from
  under-covered cells.
"""
