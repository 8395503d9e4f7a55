# Fixture: widget commands checked against the rows of their class.
listbox .lb -geometry 20x5
.lb size 1
.lb select from
.lb select clear
button .b -text Go
.b frob
.lb select x
.unknown
