#!/usr/bin/env python3
"""The null-byte segmenter and refinement on a few hand-made messages.

Null runs mark probable field boundaries: a run after text is the
string terminator (it stays with the text), a run before a number is
its unset most significant bytes (it stays with the number).
"""

from protoseg.model import Message, Segmentation, segments_of
from protoseg.refine import join_trace, null_refine, null_segmenter


def show(label, msg, seg):
    parts = " | ".join(value.hex(" ") for value in segments_of(seg, msg))
    print(f"{label:24s} {parts}")


samples = [
    ("number then string", bytes.fromhex("112200004142430099")),
    ("terminated string", b"GET\x00\x01\x00\x2a"),
    ("leading pad", bytes.fromhex("0000410a99")),
    ("all binary", bytes.fromhex("d3a1b2c4")),
]

print("null-byte segmenter:")
for label, payload in samples:
    msg = Message(0, payload)
    show(label, msg, null_segmenter(msg))

# refinement never adds or removes cuts, it only relocates one per run;
# like every static pass it maps the layout of a whole trace (here of one
# message) to a new layout, which gives the segmentations back
print("\nnull-byte refinement of a coarse segmentation:")
msg = Message(0, bytes.fromhex("9911000000310a"))
coarse = Segmentation(0, (4,))
(refined,) = null_refine(join_trace([coarse], [msg])).segmentations()
show("before (cut inside run)", msg, coarse)
show("after  (cut at run start)", msg, refined)
