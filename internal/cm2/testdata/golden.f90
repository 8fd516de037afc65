program golden
real a(8,8), b(8,8), c(8,8)
real s
integer i
a = 1.5
b = 0.25
do i = 1, 6
  b = a*2.0 + b
  c = cshift(b, 1, 1)
  a = sqrt(c) + 0.5
end do
s = sum(a)
print *, 'sum =', s
end program golden
