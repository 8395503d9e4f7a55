# Table II row 3 for the buttons50 workload: fifty fills a frame with
# one packed button per label. The benchmark displays it with update,
# destroys the frame and updates again. The option database entries make
# every button creation consult it.

option add *Button.background lightsteelblue
option add *Button.activeBackground steelblue
option add *Button.relief raised

proc fifty {labels} {
    frame .f
    set i 0
    foreach label $labels {
        button .f.b$i -text $label -command "set pressed $i"
        pack append .f .f.b$i {top fillx}
        incr i
    }
    pack append . .f {top}
}
