# Compute kernel for the tcl workload: list building, loops, integer
# arithmetic and string work, with no display. Every result is checked
# against the same function written in Go (checksum in workloads.go),
# so the two must change together.

proc lcg {x} {
    return [expr {($x * 1103515245 + 12345) % 2147483648}]
}

proc checksum {seed n word} {
    set xs {}
    set x $seed
    for {set i 0} {$i < $n} {incr i} {
        set x [lcg $x]
        lappend xs [expr {$x % 1000}]
    }
    set sum 0
    foreach v $xs {
        if {$v % 3 == 0} {
            set sum [expr {$sum + $v}]
        } else {
            set sum [expr {$sum ^ $v}]
        }
    }
    set acc 0
    set i 0
    while {$i < [llength $xs]} {
        set acc [expr {($acc * 31 + [lindex $xs $i]) % 1000003}]
        incr i 3
    }
    set up [string toupper $word]
    set vowels 0
    foreach c [split $up {}] {
        if {[string first $c AEIOU] >= 0} {
            incr vowels
        }
    }
    return [expr {$sum + $acc + [string length $up] * 1000 + $vowels}]
}
