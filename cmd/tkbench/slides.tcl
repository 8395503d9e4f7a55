# A defslide-style slide deck (after slide.tcl) for the slides and
# remote workloads. defslide turns each slide into a proc that clears the
# canvas and draws the slide's items, so every slide change re-runs Tcl
# proc bodies as well as redrawing.

canvas .c -width 480 -height 360 -background white
pack append . .c {top}

proc fresh-canvas {} {
    .c delete all
}

proc drawitem {tag kind args} {
    eval .c create $kind $args -tags $tag
}

proc defslide {name items} {
    proc slide_$name {} "fresh-canvas\n$items"
}
