# A help_tcltk-style browser for the keypress workload: a text widget
# holding tagged paragraphs, and a status line that a binding keeps in
# step with the insertion cursor on every key press.

proc insertWithTags {w text args} {
    set start [$w index insert]
    $w insert insert $text
    foreach tag $args {
        $w tag add $tag $start insert
    }
}

proc browser {w} {
    frame $w
    text $w.t -width 64 -height 20 -relief sunken -borderwidth 2
    label $w.status -text 1.0 -anchor w
    pack append $w $w.t {top fill expand} $w.status {bottom fillx}
    pack append . $w {top fill expand}
    $w.t tag configure heading -foreground firebrick -underline 1
    $w.t tag configure keyword -background lightyellow
    bind $w.t <KeyPress> "$w.status configure -text \[$w.t index insert\]"
    focus $w.t
}
