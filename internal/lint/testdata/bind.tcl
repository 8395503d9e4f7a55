# Fixture: bind, a canvas's bind and a text's tag bind, checked alike.
canvas .c
text .t
bind .t <1> {hilight .t}
.c bind x <1> {hilight .c}
.t tag bind hot <1> {hilight .t}
bind .t <Foo> {puts foo}
.c bind x <Foo> {puts foo}
.t tag bind hot <1> {+puts more}
