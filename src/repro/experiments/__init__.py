"""Experiment drivers regenerating every table and figure of section VII.

``repro.experiments.figures.FIGURES`` is the entry point: one record per
figure, with its sizes and the paper's claims.
"""
