"""Asynchronous message-passing substrate (the paper's system model).

An event-driven simulator of reliable directed links with arbitrary delays,
plus the process abstraction protocols are written against and a library of
delay models (including the adversarial schedule used by the necessity
construction of Theorem 18).
"""
