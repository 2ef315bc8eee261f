"""Discrete-event network simulation substrate (the NS3 replacement).

Its modules: the event scheduler, the dumbbell topology components
(fixed-rate and trace-driven bottleneck links, each owning its drop-tail
gateway queue), per-flow monitoring and the
:func:`~repro.netsim.simulation.run_simulation` entry point.
"""
