"""Hypothesis settings shared by every property test.

Hypothesis's ``explain`` phase re-runs a failing example many times to
annotate it, so one failing property test could take minutes to report
and stall the whole suite. The profile loaded here runs every other
phase; each test keeps its own example count and other settings.
"""

from hypothesis import Phase, settings

settings.register_profile("tiersim", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("tiersim")
